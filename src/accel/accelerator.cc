#include "accel/accelerator.hh"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "sim/logging.hh"

namespace optimus::accel {

Accelerator::Accelerator(sim::EventQueue &eq,
                         const sim::PlatformParams &params,
                         std::string name, std::uint64_t freq_mhz,
                         sim::Scope scope)
    : sim::Clocked(eq, freq_mhz),
      _name(std::move(name)),
      _dma(eq, freq_mhz, _name + ".dma", scope.sub("dma")),
      _stateLineGap(static_cast<sim::Tick>(
          static_cast<double>(sim::kCacheLineBytes) /
          params.stateSaveGbps * static_cast<double>(sim::kTickNs))),
      _ringPollCycles(params.ringPollCycles),
      _preempts(scope.node, "preempts", "preempt commands handled"),
      _resumes(scope.node, "resumes", "resume commands handled"),
      _jobs(scope.node, "jobs", "jobs completed"),
      _ringPolls(scope.node, "ring_polls",
                 "submission-ring poll wakeups"),
      _ringFetches(scope.node, "ring_fetches",
                   "commands fetched from the submission ring"),
      _ringPosts(scope.node, "ring_posts",
                 "completions posted into the completion ring")
{
}

std::uint64_t
Accelerator::stateSizeBytes() const
{
    std::uint64_t base = 3 * sizeof(std::uint64_t) +
                         archStateCapacity();
    return std::max(base, _syntheticStateBytes);
}

void
Accelerator::dmaResponse(ccip::DmaTxnPtr txn)
{
    if (txn->onComplete)
        txn->onComplete(*txn);
}

std::uint64_t
Accelerator::mmioRead(std::uint64_t offset)
{
    if (_mmioWedged)
        return ~0ULL;
    switch (offset) {
      case reg::kCtrl:
        return 0;
      case reg::kErrStatus:
        return 0;
      case reg::kStatus:
        return static_cast<std::uint64_t>(_status);
      case reg::kStateBuf:
        return _stateBuf;
      case reg::kStateSize:
        return stateSizeBytes();
      case reg::kResult:
        return _result;
      case reg::kProgress:
        return _progress;
      default:
        break;
    }
    if (offset >= reg::kApp0 &&
        offset < reg::kApp0 + 8ULL * reg::kNumAppRegs &&
        offset % 8 == 0) {
        return _appRegs[(offset - reg::kApp0) / 8];
    }
    return 0;
}

void
Accelerator::mmioWrite(std::uint64_t offset, std::uint64_t value)
{
    if (_mmioWedged)
        return;
    if (offset == reg::kCtrl) {
        command(value);
        return;
    }
    if (offset == reg::kStateBuf) {
        _stateBuf = value;
        return;
    }
    if (offset >= reg::kApp0 &&
        offset < reg::kApp0 + 8ULL * reg::kNumAppRegs &&
        offset % 8 == 0) {
        std::uint32_t idx =
            static_cast<std::uint32_t>((offset - reg::kApp0) / 8);
        _appRegs[idx] = value;
        onAppRegWrite(idx, value);
    }
    // Other offsets are read-only or unmapped; writes are ignored,
    // as real MMIO register files do.
}

void
Accelerator::command(std::uint64_t bits)
{
    if (_wedged)
        return; // pipeline hung: only a VCU hard reset recovers
    if (bits & ctrl::kSoftReset) {
        clearJob();
        return;
    }
    if (bits & ctrl::kStart) {
        if (_status == Status::kIdle || _status == Status::kDone ||
            _status == Status::kError) {
            _status = Status::kRunning;
            _result = 0;
            _progress = 0;
            onStart();
        }
        return;
    }
    if (bits & ctrl::kPreempt) {
        beginPreempt();
        return;
    }
    if (bits & ctrl::kResume) {
        beginResume();
        return;
    }
}

void
Accelerator::clearJob()
{
    ++_epoch;
    _dma.reset();
    _status = Status::kIdle;
    _result = 0;
    _progress = 0;
    _doneDuringSave = false;
    _preemptAfterRestore = false;
    onSoftReset();
}

void
Accelerator::hardReset()
{
    clearJob();
    _stateBuf = 0;
    _wedged = false;
    _mmioWedged = false;
    _appRegs.fill(0);
    _ringArmed = false;
    _ring = ring::DeviceConfig{};
    _ringFetchInFlight = false;
    _ringPollPending = false;
}

void
Accelerator::wedge()
{
    if (_wedged)
        return;
    _wedged = true;
    // The epoch bump kills every guarded callback, so the pipeline
    // genuinely stops: no more progress, no completion, no doorbell.
    ++_epoch;
    _dma.reset();
}

void
Accelerator::wedgeMmio()
{
    _mmioWedged = true;
}

void
Accelerator::finish(std::uint64_t result)
{
    _result = result;
    ++_jobs;
    if (_status == Status::kSaving) {
        // The job drained to completion while a preempt was pending;
        // record it so the saved context resumes straight to DONE.
        _doneDuringSave = true;
        return;
    }
    _status = Status::kDone;
    completeJob();
}

void
Accelerator::fail()
{
    // A plain doorbell even for a ring job: the hypervisor posts the
    // ring's error completions.
    _status = Status::kError;
    raiseDoorbell();
}

void
Accelerator::completeJob()
{
    if (_ringArmed && _ring.state.jobActive)
        ringPostCompletion();
    else
        raiseDoorbell();
}

void
Accelerator::raiseDoorbell()
{
    // A wedged MMIO plane swallows the interrupt as well: the guest
    // never learns the job finished, which is exactly the silent
    // failure the watchdog detects via frozen progress.
    if (_mmioWedged)
        return;
    if (_doorbell)
        _doorbell(*this);
}

void
Accelerator::beginPreempt()
{
    if (_status == Status::kRestoring) {
        // The context is still streaming in: save it again as soon
        // as it is whole, so the SAVED doorbell still comes.
        _preemptAfterRestore = true;
        return;
    }
    if (_status == Status::kSaving || _status == Status::kSaved)
        return; // already context switching
    ++_preempts;
    Status at_preempt = _status;
    _status = Status::kSaving;
    _doneDuringSave = false;

    // Wait for all in-flight transactions to be processed, then save
    // the execution state to the guest buffer (Section 4.2).
    std::uint64_t epoch = _epoch;
    _dma.notifyWhenDrained([this, epoch, at_preempt]() {
        if (epoch != _epoch)
            return;

        Status to_save = at_preempt;
        if (_doneDuringSave || at_preempt == Status::kDone)
            to_save = Status::kDone;

        // The blob: a header of status, result and progress, then
        // the model's arch state, zero-padded to STATE_SIZE.
        std::vector<std::uint8_t> blob(stateSizeBytes(), 0);
        StateWriter w(blob.data(), blob.size());
        w.u64(static_cast<std::uint64_t>(to_save));
        w.u64(_result);
        w.u64(_progress);
        saveArchState(w);

        transferStateBlob(true, std::move(blob),
                          [this](std::vector<std::uint8_t>) {
                              _status = Status::kSaved;
                              raiseDoorbell();
                          });
    });
}

void
Accelerator::beginResume()
{
    if (_status == Status::kRunning)
        return;
    ++_resumes;
    _status = Status::kRestoring;

    transferStateBlob(
        false, std::vector<std::uint8_t>(stateSizeBytes(), 0),
        [this](std::vector<std::uint8_t> blob) {
            // The application registers are not in the blob: the
            // hypervisor cached them and replayed them at schedule.
            StateReader r(blob.data(), blob.size());
            const auto saved = static_cast<Status>(r.u64());
            _result = r.u64();
            _progress = r.u64();
            restoreArchState(r);
            _status = saved;
            if (_preemptAfterRestore) {
                // The job stays parked; the next RESUME restores the
                // blob this preempt writes back.
                _preemptAfterRestore = false;
                beginPreempt();
                return;
            }
            if (saved == Status::kRunning) {
                onResumed();
            } else if (saved == Status::kDone ||
                       saved == Status::kError) {
                // A ring job that drained to completion under the
                // preempt posts through the ring it came from. The
                // scheduler arms the ring when the RESUME write is
                // acknowledged, one PCIe hop after it lands, so the
                // ring is armed before this blob (a host round trip
                // per line) is back.
                completeJob();
            } else {
                // Saved between jobs: the armed ring's poll found
                // the device restoring, so poll again.
                ringWake();
            }
        });
}

void
Accelerator::transferStateBlob(
    bool save, std::vector<std::uint8_t> blob,
    std::function<void(std::vector<std::uint8_t>)> done)
{
    OPTIMUS_ASSERT(_stateBuf != 0,
                   "%s: preemption without a state buffer",
                   _name.c_str());

    struct Xfer
    {
        std::vector<std::uint8_t> blob;
        std::function<void(std::vector<std::uint8_t>)> done;
        std::uint64_t lines = 0;
        std::uint64_t issued = 0;
        std::uint64_t completed = 0;
    };
    auto xfer = std::make_shared<Xfer>();
    xfer->blob = std::move(blob);
    xfer->done = std::move(done);
    xfer->lines = (xfer->blob.size() + sim::kCacheLineBytes - 1) /
                  sim::kCacheLineBytes;

    std::uint64_t epoch = _epoch;
    mem::Gva buf(_stateBuf);

    // State moves in MMIO-paced cache-line bursts: one line per
    // _stateLineGap, well below streaming DMA rates.
    auto issue_one = [this, epoch, xfer, buf, save]() {
        if (epoch != _epoch)
            return;
        std::uint64_t i = xfer->issued++;
        std::uint64_t off = i * sim::kCacheLineBytes;
        std::uint32_t bytes = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(sim::kCacheLineBytes,
                                    xfer->blob.size() - off));
        auto on_line = [this, epoch, xfer, off,
                        bytes](ccip::DmaTxn &t) {
            if (epoch != _epoch)
                return;
            if (!t.isWrite)
                std::memcpy(xfer->blob.data() + off, t.data.data(),
                            bytes);
            if (++xfer->completed == xfer->lines)
                xfer->done(std::move(xfer->blob));
        };
        if (save) {
            _dma.write(buf + off, xfer->blob.data() + off, bytes,
                       on_line);
        } else {
            _dma.read(buf + off, bytes, on_line);
        }
    };

    for (std::uint64_t i = 0; i < xfer->lines; ++i)
        eventq().scheduleIn(_stateLineGap * i, issue_one);
}

// ------------------------------------------------------------------
// Shared-memory ring poller (DESIGN.md §14). The poller only ever
// runs while the device is quiescent (kIdle/kDone/kError): a preempt
// flips status to kSaving, which both blocks new fetches and makes
// an in-flight fetch response abandon without consuming, so the
// hypervisor's mirrored cursors stay exact across context switches.
// ------------------------------------------------------------------

void
Accelerator::armRing(const ring::DeviceConfig &cfg)
{
    OPTIMUS_ASSERT(cfg.entries > 0, "%s: armRing with empty ring",
                   _name.c_str());
    _ringArmed = true;
    _ring = cfg;
    _ringFetchInFlight = false;
    _ringPollPending = false;
    if (!_ring.state.jobActive)
        ringWake();
}

void
Accelerator::disarmRing()
{
    _ringArmed = false;
    _ringFetchInFlight = false;
    _ringPollPending = false;
}

void
Accelerator::ringNotify(std::uint64_t prod_seq)
{
    if (!_ringArmed)
        return;
    if (prod_seq > _ring.state.prodSeq)
        _ring.state.prodSeq = prod_seq;
    if (!_ring.state.jobActive)
        ringWake();
}

void
Accelerator::ringWake()
{
    if (_ringPollPending || !_ringArmed || _wedged)
        return;
    _ringPollPending = true;
    scheduleGuarded(_ringPollCycles, [this]() {
        _ringPollPending = false;
        ++_ringPolls;
        ringTryFetch();
    });
}

void
Accelerator::ringTryFetch()
{
    if (!_ringArmed || _wedged || _ringFetchInFlight)
        return;
    if (_ring.state.jobActive ||
        _ring.state.nextSeq >= _ring.state.prodSeq)
        return;
    if (_status != Status::kIdle && _status != Status::kDone &&
        _status != Status::kError)
        return;

    _ringFetchInFlight = true;
    std::uint64_t seq = _ring.state.nextSeq;
    mem::Gva slot(_ring.base.value() +
                  ring::submitSlotOff(_ring.entries, seq));
    std::uint64_t epoch = _epoch;
    _dma.read(slot, sizeof(ring::SubmitEntry),
              [this, epoch, seq](ccip::DmaTxn &t) {
                  if (epoch != _epoch)
                      return;
                  _ringFetchInFlight = false;
                  // A preempt (or disarm) raced the fetch: abandon
                  // without consuming; the re-armed poller fetches
                  // this entry again.
                  if (!_ringArmed || _wedged ||
                      _ring.state.jobActive ||
                      seq != _ring.state.nextSeq)
                      return;
                  if (_status != Status::kIdle &&
                      _status != Status::kDone &&
                      _status != Status::kError)
                      return;
                  if (t.error) {
                      ringWake(); // transient: re-poll the same slot
                      return;
                  }

                  ring::SubmitEntry e;
                  std::memcpy(&e, t.data.data(), sizeof(e));
                  OPTIMUS_ASSERT(e.seq == seq && e.op == ring::op::kStart,
                                 "%s: bad submit entry (seq %llu op "
                                 "%llu at cursor %llu)",
                                 _name.c_str(),
                                 static_cast<unsigned long long>(e.seq),
                                 static_cast<unsigned long long>(e.op),
                                 static_cast<unsigned long long>(seq));

                  // Consume: advance the cursor, acknowledge through
                  // the device-owned submit.cons line, and run the job
                  // exactly as a START doorbell would have.
                  _ring.state.nextSeq = seq + 1;
                  _ring.state.jobActive = true;
                  _ring.state.jobSeq = seq;
                  std::uint64_t ack = _ring.state.nextSeq;
                  _dma.write(mem::Gva(_ring.base.value() +
                                      ring::headerOff(
                                          ring::kSubmitConsLine)),
                             &ack, sizeof(ack),
                             [this](ccip::DmaTxn &) {
                                 if (_ringAcked)
                                     _ringAcked(*this);
                             });
                  ++_ringFetches;
                  _status = Status::kRunning;
                  _result = 0;
                  _progress = 0;
                  onStart();
              });
}

void
Accelerator::ringPostCompletion()
{
    OPTIMUS_ASSERT(_ringArmed && _ring.state.jobActive,
                   "%s: ring post without an in-flight ring job",
                   _name.c_str());
    ring::CompleteEntry ce;
    ce.seq = _ring.state.jobSeq;
    ce.status = static_cast<std::uint64_t>(_status);
    ce.result = _result;
    ce.progress = _progress;
    ce.err = 0; // hypervisor-maintained; its error posts stamp this
    ce.tick = now();

    // Entry line first, then the sequence word — single-writer
    // publish discipline, each line one DMA write. The chained
    // completion keeps the port non-idle, so a concurrent preempt's
    // drain cannot fire between the two stores.
    std::uint64_t epoch = _epoch;
    mem::Gva slot(_ring.base.value() +
                  ring::completeSlotOff(_ring.entries, ce.seq));
    _dma.write(slot, &ce, sizeof(ce), [this, epoch](ccip::DmaTxn &) {
        if (epoch != _epoch)
            return;
        std::uint64_t prod = _ring.state.jobSeq + 1;
        _ring.state.compSeq = prod;
        _dma.write(mem::Gva(_ring.base.value() +
                            ring::headerOff(ring::kCompleteProdLine)),
                   &prod, sizeof(prod),
                   [this, epoch](ccip::DmaTxn &) {
                       if (epoch != _epoch)
                           return;
                       _ring.state.jobActive = false;
                       ++_ringPosts;
                       if (_ringPosted)
                           _ringPosted(*this);
                       if (_ringArmed &&
                           _ring.state.nextSeq < _ring.state.prodSeq) {
                           ringWake();
                       } else if (_status == Status::kDone ||
                                  _status == Status::kError) {
                           // Ring drained: one doorbell tells the
                           // hypervisor this tenant went quiescent
                           // (it re-notifies if its mirror already
                           // knows of newer entries).
                           raiseDoorbell();
                       }
                   });
    });
}

} // namespace optimus::accel
