/**
 * @file
 * Benchmark program: runs one workload of the OPTIMUS simulator
 * repeatedly for a host-time budget and prints one JSON line with the
 * end-to-end metrics, the per-layer ledger and the correctness gate.
 *
 *   perfbench_sim --workload dma_stream|svc_mixed|fleet_migrate
 *                 --seed N --seconds S [--trace 0|1] [--spans PATH]
 *
 * Every repetition ("rep") builds a fresh hv::System or
 * fleet::Cluster from the seed, drives it through public calls only
 * (constructors, attach / exp::setupMembench, ServicePlane::addTenant
 * and run, Cluster::addTenant and run), and reads the layers back from
 * their getters and the telemetry tree. Host time is split at those
 * call boundaries: setup.platform (constructor), setup.tenants
 * (tenants and programmed workloads) and run (the simulated window
 * plus its drain). Simulated results are a pure function of the seed,
 * so every rep of one run must produce the same fingerprint; the
 * reported host times are medians over the reps.
 *
 * With --trace 1 the reps alternate untraced and traced. A traced rep
 * attaches a counting sink to every System's trace bus and records
 * host-time spans around the same call boundaries; the spans are
 * written to --spans when the run ends.
 */

#include <sched.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory_resource>
#include <queue>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "accel/membench_accel.hh"
#include "exp/builders.hh"
#include "fleet/fleet.hh"
#include "hv/system.hh"
#include "sim/stats.hh"
#include "sim/telemetry.hh"
#include "sim/trace_bus.hh"
#include "svc/service_plane.hh"

using namespace optimus;

namespace {

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Per-component seed derived from the run seed. */
std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t i)
{
    return splitmix(splitmix(seed) + i) | 1;
}

// ---------------------------------------------------------- tracing

/** Counts trace-bus records per kind. */
class CountingSink : public sim::TraceSink
{
  public:
    void
    record(const sim::TraceBus &, const sim::TraceRecord &r) override
    {
        ++counts[static_cast<std::size_t>(r.kind)];
    }

    std::array<std::uint64_t, sim::kNumTraceKinds> counts{};
};

/** Host-time spans kept in memory, written when the run ends. */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double startUs = 0;
        double endUs = 0;
        int parent = -1;
        unsigned rep = 0;
    };

    void
    begin(const std::string &name)
    {
        Span s;
        s.name = name;
        s.startUs = nowUs();
        s.parent = _open.empty() ? -1 : _open.back();
        s.rep = rep;
        _open.push_back(static_cast<int>(_spans.size()));
        _spans.push_back(std::move(s));
    }

    void
    end()
    {
        _spans[static_cast<std::size_t>(_open.back())].endUs = nowUs();
        _open.pop_back();
    }

    /** Chrome trace-event JSON (complete events, one track). */
    bool
    write(const std::string &path,
          const std::array<std::uint64_t, sim::kNumTraceKinds> &kinds)
        const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"traceEvents\": [");
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            std::fprintf(f,
                         "%s\n  {\"name\": \"%s\", \"ph\": \"X\", "
                         "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                         "\"dur\": %.3f, \"args\": {\"rep\": %u, "
                         "\"parent\": \"%s\"}}",
                         i ? "," : "", s.name.c_str(), s.startUs,
                         s.endUs - s.startUs, s.rep,
                         s.parent < 0
                             ? ""
                             : _spans[static_cast<std::size_t>(
                                          s.parent)]
                                   .name.c_str());
        }
        std::fprintf(f, "\n], \"traceRecordsByKind\": {");
        for (std::size_t k = 0; k < kinds.size(); ++k) {
            std::fprintf(
                f, "%s\"%s\": %llu", k ? ", " : "",
                sim::traceKindName(static_cast<sim::TraceKind>(k)),
                static_cast<unsigned long long>(kinds[k]));
        }
        std::fprintf(f, "}}\n");
        return std::fclose(f) == 0;
    }

    unsigned rep = 0;

  private:
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         _origin)
            .count();
    }

    Clock::time_point _origin = Clock::now();
    std::vector<Span> _spans;
    std::vector<int> _open;
};

/** What a traced rep carries; null for an untraced rep. */
struct Tracing
{
    SpanLog spans;
    CountingSink sink;
};

/**
 * Host-time laps at the public call boundaries. Each lap closes the
 * current phase, returns its seconds, and (traced reps only) closes
 * and opens the matching span.
 */
class Phases
{
  public:
    Phases(Tracing *tr, const char *first) : _tr(tr)
    {
        if (_tr) {
            _tr->spans.begin("rep");
            _tr->spans.begin(first);
        }
        _t = Clock::now();
    }

    double
    lap(const char *next)
    {
        Clock::time_point now = Clock::now();
        double s = seconds(_t, now);
        if (_tr) {
            _tr->spans.end();
            if (next)
                _tr->spans.begin(next);
            else
                _tr->spans.end(); // "rep"
        }
        _t = Clock::now();
        return s;
    }

  private:
    Tracing *_tr;
    Clock::time_point _t;
};

// ---------------------------------------------------------- ledger

/** Everything one rep measured. */
struct Ledger
{
    double platformS = 0; ///< host: constructor
    double tenantsS = 0;  ///< host: tenants + programmed workloads
    double hostS = 0;     ///< host: simulated window plus drain

    /** Simulated end-to-end metrics (exact for a given seed). */
    std::map<std::string, double> sim;
    /** Per-layer counts and simulated ratios (exact per seed). */
    std::map<std::string, double> layer;

    /** Host-speed reference loop's time just before this rep. */
    double calS = 0;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> violations;
    std::uint64_t programFp = 0; ///< plane/cluster/progress digest

    /** @p host_s rescaled to the reference host speed. */
    double norm(double host_s) const;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            violations.push_back(what);
    }

    /** FNV-1a over every exact value: two reps of one seed must
     *  agree on all of them. */
    std::uint64_t
    fingerprint() const
    {
        std::uint64_t h = 0xcbf29ce484222325ULL;
        auto mix = [&h](std::uint64_t v) {
            for (int i = 0; i < 8; ++i) {
                h ^= (v >> (8 * i)) & 0xff;
                h *= 0x100000001b3ULL;
            }
        };
        auto mixMap = [&](const std::map<std::string, double> &m) {
            for (const auto &[k, v] : m) {
                for (char c : k)
                    mix(static_cast<unsigned char>(c));
                std::uint64_t bits = 0;
                static_assert(sizeof(bits) == sizeof(v));
                std::memcpy(&bits, &v, sizeof(bits));
                mix(bits);
            }
        };
        mix(programFp);
        mixMap(sim);
        mixMap(layer);
        return h;
    }
};

using Flat = std::vector<std::pair<std::string, const sim::Stat *>>;

void
flatten(const sim::TelemetryNode &n, Flat &out)
{
    for (const sim::Stat *s : n.stats())
        out.emplace_back(n.path().empty() ? s->name()
                                          : n.path() + "." + s->name(),
                         s);
    for (const auto &c : n.children())
        flatten(*c, out);
}

double
sumCounters(const Flat &f, const char *pattern)
{
    const std::regex re(pattern);
    std::uint64_t v = 0;
    for (const auto &[path, s] : f)
        if (auto *c = dynamic_cast<const sim::Counter *>(s))
            if (std::regex_match(path, re))
                v += c->value();
    return static_cast<double>(v);
}

sim::Histogram
mergeHists(const Flat &f, const char *pattern)
{
    const std::regex re(pattern);
    sim::Histogram agg(nullptr, "agg", "merged");
    for (const auto &[path, s] : f)
        if (auto *h = dynamic_cast<const sim::Histogram *>(s))
            if (std::regex_match(path, re))
                agg.merge(*h);
    return agg;
}

/**
 * Percentile @p p of @p h, interpolated linearly inside its bucket.
 * Histogram::percentile() returns the bucket midpoint, so a shift
 * smaller than one bucket (up to 3.1% wide) would not show.
 */
double
percentile(const sim::Histogram &h, double p)
{
    const std::vector<std::uint64_t> &b = h.buckets();
    const double rank = p / 100.0 * static_cast<double>(h.count());
    double below = 0;
    for (std::uint32_t i = 0; i < b.size(); ++i) {
        if (b[i] == 0)
            continue;
        if (below + static_cast<double>(b[i]) >= rank) {
            const auto lo =
                static_cast<double>(sim::Histogram::bucketLo(i));
            const auto hi =
                static_cast<double>(sim::Histogram::bucketHi(i));
            return lo +
                   (rank - below) / static_cast<double>(b[i]) * (hi - lo);
        }
        below += static_cast<double>(b[i]);
    }
    return static_cast<double>(h.max());
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/**
 * The platform layers, read from the telemetry tree of every System
 * in the rep (one, or one per fleet node): ccip, iommu, mem, fpga,
 * accel and hv. Also checks the DMA half of the correctness gate.
 */
void
collectPlatform(const Flat &f, Ledger &L)
{
    auto &m = L.layer;
    m["ccip.dma_reads"] = sumCounters(f, R"(shell\.dma_reads)");
    m["ccip.dma_writes"] = sumCounters(f, R"(shell\.dma_writes)");
    m["ccip.link_bytes_to_host"] =
        sumCounters(f, R"(shell\.[^.]+\.bytes_to_host)");
    m["ccip.link_bytes_to_fpga"] =
        sumCounters(f, R"(shell\.[^.]+\.bytes_to_fpga)");
    m["ccip.bridge_requests"] =
        sumCounters(f, R"(shell\.bridge\.requests)");
    m["ccip.dma_retries"] = sumCounters(f, R"(shell\.dma_retries)");

    m["iommu.iotlb_hits"] = sumCounters(f, R"(iommu\.iotlb\.hits)");
    m["iommu.iotlb_misses"] = sumCounters(f, R"(iommu\.iotlb\.misses)");
    m["iommu.iotlb_hit_ratio"] =
        ratio(m["iommu.iotlb_hits"],
              m["iommu.iotlb_hits"] + m["iommu.iotlb_misses"]);
    m["iommu.walks"] = sumCounters(f, R"(iommu\.walks)");
    m["iommu.coalesced_walks"] =
        sumCounters(f, R"(iommu\.coalesced_walks)");
    m["iommu.conflict_evictions"] =
        sumCounters(f, R"(iommu\.iotlb\.conflict_evictions)");

    m["mem.accesses"] = sumCounters(f, R"(mem\.accesses)");
    m["mem.bytes"] = sumCounters(f, R"(mem\.bytes)");

    m["fpga.auditor_forwarded"] =
        sumCounters(f, R"(fabric\.auditor\d+\.forwarded)");
    m["fpga.auditor_rejects"] =
        sumCounters(f, R"(fabric\.auditor\d+\.rejected_dmas)");
    m["fpga.vcu_mmios"] = sumCounters(f, R"(fabric\.vcu_mmios)");

    const sim::Histogram dma =
        mergeHists(f, R"(accel\d+\..*\.dma\.latency_hist_ns)");
    m["accel.dma_p50_ns"] = percentile(dma, 50);
    m["accel.dma_p99_ns"] = percentile(dma, 99);
    m["accel.dma_errors"] = sumCounters(f, R"(accel\d+\..*\.dma\.errors)");
    m["accel.ring_polls"] = sumCounters(f, R"(accel\d+\..*\.ring_polls)");
    m["accel.ring_fetches"] =
        sumCounters(f, R"(accel\d+\..*\.ring_fetches)");
    m["accel.ring_poll_yield"] =
        ratio(m["accel.ring_fetches"], m["accel.ring_polls"]);

    m["hv.mmio_traps"] = sumCounters(f, R"(hv\.mmio_traps)");
    m["hv.hypercalls"] = sumCounters(f, R"(hv\.hypercalls)");
    m["hv.context_switches"] = sumCounters(f, R"(hv\.context_switches)");
    m["hv.preempts"] = sumCounters(f, R"(.*\.vaccel\d+\.preempts)");
    m["hv.forced_resets"] = sumCounters(f, R"(hv\.forced_resets)");
    m["hv.ring_kicks"] = sumCounters(f, R"(hv\.ring_kicks)");
    m["ring.submits"] = sumCounters(f, R"(hv\.ring_submits)");
    m["ring.completes"] = sumCounters(f, R"(hv\.ring_completes)");
    m["ring.reqs_per_kick"] =
        ratio(m["ring.completes"], m["hv.ring_kicks"]);

    // DMAs the accelerator ports issued: the bandwidth numerator and
    // the dma_stream operation count.
    m["accel.dma_issued"] =
        sumCounters(f, R"(accel\d+\..*\.dma\.(reads|writes))");
    m["accel.dma_completed"] = static_cast<double>(dma.count());
    L.sim["sim_req_p50_us"] = m["accel.dma_p50_ns"] / 1e3;
    L.sim["sim_req_p99_us"] = m["accel.dma_p99_ns"] / 1e3;

    const double dropped = sumCounters(f, R"(shell\.dma_dropped)");
    L.check(m["accel.dma_errors"] == 0, "DMA errors");
    L.check(dropped == 0, "dropped DMAs");
    L.check(m["fpga.auditor_rejects"] == 0, "auditor rejects");
    L.failed += static_cast<std::uint64_t>(
        m["accel.dma_errors"] + dropped + m["fpga.auditor_rejects"]);
}

/** Simulated-time DMA bandwidth over the run phase. */
void
setDmaBandwidth(Ledger &L, double sim_ns)
{
    L.sim["sim_dma_gbps"] =
        ratio(L.layer["accel.dma_issued"] * exp::kBytesPerLine, sim_ns);
}

/** Event-kernel counters at the start of the run phase. */
class KernelMark
{
  public:
    KernelMark(const sim::DomainSet &ds, const sim::EpochScheduler &sch)
        : _ds(ds), _sch(sch), _events(ds.executed()),
          _epochs(sch.epochs()), _delivered(sch.delivered())
    {
    }

    /** Record the run phase's share of the counters into @p L. */
    void
    collect(Ledger &L) const
    {
        const auto events = static_cast<double>(_ds.executed() - _events);
        const auto epochs = static_cast<double>(_sch.epochs() - _epochs);
        L.layer["sim.events"] = events;
        L.layer["sim.epochs"] = epochs;
        L.layer["sim.cross_delivered"] =
            static_cast<double>(_sch.delivered() - _delivered);
        L.layer["sim.events_per_epoch"] = ratio(events, epochs);
    }

  private:
    const sim::DomainSet &_ds;
    const sim::EpochScheduler &_sch;
    std::uint64_t _events, _epochs, _delivered;
};

/**
 * The service layer across @p tenants (every binding on every node
 * for a fleet). Replaces the DMA-level request metrics with request
 * latency timed from arrival and checks the request half of the
 * correctness gate.
 */
void
collectService(const std::vector<const svc::Tenant *> &tenants,
               double sim_ns, Ledger &L)
{
    sim::Histogram e2e(nullptr, "e2e", "merged");
    sim::Histogram queue(nullptr, "queue", "merged");
    sim::Histogram service(nullptr, "service", "merged");
    std::uint64_t arrivals = 0, completed = 0, rejected = 0,
                  dropped = 0, verify = 0, batches = 0, goodput = 0,
                  queued = 0;
    for (const svc::Tenant *t : tenants) {
        e2e.merge(t->e2eHist());
        queue.merge(t->queueHist());
        service.merge(t->serviceHist());
        arrivals += t->arrivals();
        completed += t->completed();
        rejected += t->rejected();
        dropped += t->dropped();
        verify += t->verifyFailures();
        batches += t->batches();
        goodput += t->goodput();
        queued += t->queueLength();
    }
    auto &m = L.layer;
    m["svc.arrivals"] = static_cast<double>(arrivals);
    m["svc.completed"] = static_cast<double>(completed);
    m["svc.rejected"] = static_cast<double>(rejected);
    m["svc.dropped"] = static_cast<double>(dropped);
    m["svc.verify_failures"] = static_cast<double>(verify);
    m["svc.queue_p99_us"] = percentile(queue, 99) / 1e3;
    m["svc.service_p99_us"] = percentile(service, 99) / 1e3;
    m["svc.reqs_per_batch"] = ratio(static_cast<double>(completed),
                                    static_cast<double>(batches));
    m["hv.traps_per_req"] =
        ratio(m["hv.mmio_traps"], static_cast<double>(completed));

    L.sim["sim_req_p50_us"] = percentile(e2e, 50) / 1e3;
    L.sim["sim_req_p99_us"] = percentile(e2e, 99) / 1e3;
    L.sim["sim_goodput_rps"] =
        ratio(static_cast<double>(goodput), sim_ns / 1e9);

    L.attempted = arrivals;
    L.failed += rejected + dropped + verify;
    L.check(verify == 0, "verify failures");
    L.check(arrivals == completed + rejected + dropped,
            "arrivals != completed + rejected + dropped");
    L.check(queued == 0, "requests left queued after the drain");
    L.check(completed > 0, "no request completed");
}

// ---------------------------------------------------------- workloads

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spans;
};

/** Fewest untraced (and, with --trace 1, traced) reps in a run. */
constexpr unsigned kMinReps = 3;

using Workload = Ledger (*)(const Options &, unsigned, Tracing *);

/** Reference-loop time that host times are scaled to. It is a fixed
 *  constant, so a scaled time compares across runs and commits; it is
 *  not the wall time of any host. */
constexpr double kCalRefS = 0.0115;

/**
 * Host-speed reference. The shared VM this benchmark was tuned on
 * runs for tens of seconds at a time at speeds up to 1.7x apart, with
 * steal time near zero: the core itself slows (frequency or a busy
 * sibling thread). A fixed loop that does the simulator's kind of
 * work without its code (heap-ordered events, a closure allocated and
 * called per event, random reads in a 256 KB table) slows down with
 * it almost one for one, so each rep's host times are rescaled by
 * kCalRefS over this loop's time measured just before the rep.
 *
 * The loop allocates only from its own static arena, never from the
 * heap the simulator uses, so allocator state left by earlier reps
 * cannot move its time.
 */
double
calibrationSeconds()
{
    struct Event
    {
        std::uint64_t at;
        std::uint32_t id;
        bool operator<(const Event &e) const { return at > e.at; }
    };
    using Fn = std::function<void()>;
    alignas(std::max_align_t) static std::byte arena[1 << 20];
    static std::array<std::uint64_t, 1 << 15> table{};
    std::pmr::monotonic_buffer_resource upstream(
        arena, sizeof(arena), std::pmr::null_memory_resource());
    std::pmr::unsynchronized_pool_resource pool(&upstream);
    std::pmr::polymorphic_allocator<> alloc(&pool);
    std::pmr::vector<Fn *> live(256, nullptr, alloc);
    std::priority_queue<Event, std::pmr::vector<Event>> q{
        std::less<Event>(), std::pmr::vector<Event>(alloc)};
    for (std::uint32_t i = 0; i < live.size(); ++i)
        q.push({i, i});
    std::uint64_t x = 88172645463325252ULL, acc = 0;
    const Clock::time_point t0 = Clock::now();
    for (int n = 0; n < 150000; ++n) {
        const Event e = q.top();
        q.pop();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += table[x % table.size()];
        table[(x >> 20) % table.size()] += e.at;
        const std::uint64_t cap = acc + e.at;
        if (live[e.id])
            alloc.delete_object(live[e.id]);
        live[e.id] = alloc.new_object<Fn>([cap, &acc]() { acc += cap & 7; });
        (*live[e.id])();
        q.push({e.at + 1 + (x & 63), e.id});
    }
    const double s = seconds(t0, Clock::now());
    for (Fn *f : live)
        if (f)
            alloc.delete_object(f);
    table[0] += acc; // keeps the loop's work observable
    return s;
}

double
Ledger::norm(double host_s) const
{
    return host_s * kCalRefS / calS;
}

/** One rep, preceded by the host-speed reference loop. */
Ledger
timedRep(Workload fn, const Options &o, unsigned threads, Tracing *tr)
{
    const double cal = calibrationSeconds();
    Ledger L = fn(o, threads, tr);
    L.calS = cal;
    return L;
}

/** dma_stream: simulated window of the endless MemBench streams. */
constexpr sim::Tick kDmaWindow = 6 * sim::kTickMs;
/** Per-tenant working set: 8 x 256 MB = 2 GB, twice the 1 GB reach
 *  of the 512-entry IOTLB over 2 MB pages. */
constexpr std::uint64_t kDmaWset = 256ULL << 20;
constexpr std::uint32_t kDmaTenants = 8;

Ledger
dmaStream(const Options &o, unsigned threads, Tracing *tr)
{
    Ledger L;
    Phases ph(tr, "setup.platform");
    sim::PlatformParams p = sim::PlatformParams::harpDefaults();
    p.pageBytes = mem::kPage2M;
    hv::System sys(hv::makeOptimusConfig("MB", kDmaTenants, p), threads);
    // Random-write contents are never read back; keep host RAM flat.
    sys.platform.memory().setScratchWrites(true);
    if (tr)
        sys.trace.attach(&tr->sink);
    L.platformS = ph.lap("setup.tenants");

    std::vector<hv::AccelHandle *> handles;
    for (std::uint32_t j = 0; j < kDmaTenants; ++j) {
        hv::AccelHandle &h = sys.attach(j, 10ULL << 30);
        exp::setupMembench(h, kDmaWset,
                           j % 2 ? accel::MembenchAccel::kWrite
                                 : accel::MembenchAccel::kRead,
                           subSeed(o.seed, j));
        handles.push_back(&h);
    }
    L.tenantsS = ph.lap("run");

    const KernelMark mark(sys.domains, sys.sched);
    const sim::Tick t0 = sys.now();
    for (auto *h : handles)
        h->start();
    sys.run(t0 + kDmaWindow);
    L.hostS = ph.lap(nullptr);

    Flat f;
    flatten(sys.telemetry.root(), f);
    collectPlatform(f, L);
    mark.collect(L);
    const double sim_ns =
        static_cast<double>(sys.now() - t0) / sim::kTickNs;
    setDmaBandwidth(L, sim_ns);
    // No SLO on raw DMAs: every completion is goodput.
    L.sim["sim_goodput_rps"] =
        ratio(L.layer["accel.dma_completed"], sim_ns / 1e9);
    L.attempted = static_cast<std::uint64_t>(L.layer["accel.dma_issued"]);

    std::uint64_t h = 0;
    for (std::size_t j = 0; j < handles.size(); ++j) {
        std::uint64_t prog = sys.hv.peekProgress(handles[j]->vaccel());
        L.check(prog > 0, "tenant " + std::to_string(j) +
                              " made no progress");
        h = splitmix(h ^ prog);
    }
    L.programFp = splitmix(h ^ sys.now());
    return L;
}

/** svc_mixed: arrival window per rep, then drain. */
constexpr sim::Tick kSvcWindow = 100 * sim::kTickMs;
/** Per MMIO tenant: 3 x 20k req/s keeps a 100 us round-robin slot
 *  (38 us per switch) below its knee. */
constexpr double kSvcRate = 20000.0;
/** The ring tenant carries one time-shared slot's worth of load. */
constexpr double kRingRate = 60000.0;
constexpr std::uint64_t kSloNs = 300000;
/** Round-robin slice on every time-shared slot. */
constexpr sim::Tick kSlice = 100 * sim::kTickUs;

svc::TenantConfig
shaTenant(const std::string &name, std::uint32_t slot,
          std::uint64_t seed, double rate)
{
    svc::TenantConfig cfg;
    cfg.name = name;
    cfg.app = "SHA";
    cfg.bytes = 512;
    cfg.seed = seed;
    cfg.slot = slot;
    cfg.arrivals.kind = svc::ArrivalKind::kPoisson;
    cfg.arrivals.ratePerSec = rate;
    cfg.sloNs = kSloNs;
    return cfg;
}

Ledger
svcMixed(const Options &o, unsigned threads, Tracing *tr)
{
    Ledger L;
    Phases ph(tr, "setup.platform");
    hv::System sys(hv::makeOptimusConfig("SHA", 3), threads);
    for (std::uint32_t s = 0; s < 2; ++s)
        sys.hv.setPolicy(s, hv::SchedPolicy::kRoundRobin, kSlice);
    if (tr)
        sys.trace.attach(&tr->sink);
    L.platformS = ph.lap("setup.tenants");

    // Slots 0 and 1 are each time-shared by three MMIO tenants. The
    // ring tenant has slot 2 to itself: ring tenants that time-share
    // a slot under round-robin stall with a full queue (see
    // perfbench/README.md), so no command path shares a slot here.
    svc::ServicePlane plane(sys);
    for (std::uint32_t i = 0; i < 6; ++i)
        plane.addTenant(shaTenant("t" + std::to_string(i), i / 3,
                                  subSeed(o.seed, i), kSvcRate));
    svc::TenantConfig ring =
        shaTenant("ring", 2, subSeed(o.seed, 6), kRingRate);
    ring.cmdPath = ring::CmdPath::kRing;
    ring.batchMax = 4;
    plane.addTenant(ring);
    L.tenantsS = ph.lap("run");

    const KernelMark mark(sys.domains, sys.sched);
    const sim::Tick t0 = sys.now();
    plane.run(kSvcWindow);
    L.hostS = ph.lap(nullptr);

    Flat f;
    flatten(sys.telemetry.root(), f);
    collectPlatform(f, L);
    mark.collect(L);
    const double sim_ns =
        static_cast<double>(sys.now() - t0) / sim::kTickNs;
    setDmaBandwidth(L, sim_ns);
    std::vector<const svc::Tenant *> ts;
    for (std::size_t i = 0; i < plane.numTenants(); ++i)
        ts.push_back(&plane.tenant(i));
    collectService(ts, sim_ns, L);
    L.programFp = splitmix(plane.fingerprint() ^ sys.now());
    return L;
}

/** fleet_migrate: arrival window per rep, then drain. */
constexpr sim::Tick kFleetWindow = 10 * sim::kTickMs;
constexpr unsigned kFleetNodes = 8;
/** Forced ping-pong cadence for tenant 0. Its requests delayed by a
 *  blackout stay well under 1% of the fleet's, so they do not sit on
 *  the p99 and make it jump from seed to seed. */
constexpr sim::Tick kForcedPeriod = 1 * sim::kTickMs;

Ledger
fleetMigrate(const Options &o, unsigned threads, Tracing *tr)
{
    Ledger L;
    Phases ph(tr, "setup.platform");
    fleet::ClusterConfig cfg;
    cfg.nodes = kFleetNodes;
    cfg.policy = fleet::Policy::kLeastLoaded;
    cfg.node = hv::makeOptimusConfig("SHA", 1);
    // Forced moves only: rebalancer moves under 100 us time-sharing
    // hit the 5 ms preempt timeout (see perfbench/README.md).
    cfg.rebalanceInterval = 0;
    fleet::Cluster cl(cfg, threads);
    for (unsigned n = 0; n < cl.numNodes(); ++n) {
        cl.node(n).hv.setPolicy(0, hv::SchedPolicy::kRoundRobin, kSlice);
        if (tr)
            cl.node(n).trace.attach(&tr->sink);
    }
    L.platformS = ph.lap("setup.tenants");

    // Count-balanced placement puts tenants n and n+8 on node n, so
    // odd nodes carry 2 x 40k req/s and even nodes 2 x 20k: uneven,
    // but every node stays below its knee.
    for (unsigned i = 0; i < 2 * kFleetNodes; ++i) {
        fleet::FleetTenantSpec spec;
        spec.svc = shaTenant("t" + std::to_string(i), 0,
                             subSeed(o.seed, i),
                             i % 2 ? 40000.0 : 20000.0);
        cl.addTenant(spec);
    }
    std::uint64_t barriers = 0;
    sim::Tick next = cl.now() + kForcedPeriod;
    cl.setBarrierProbe([&]() {
        ++barriers;
        // Stop forcing moves once the window closes, or the fleet
        // would ping-pong forever instead of draining.
        if (cl.now() < next || cl.now() >= cl.horizon())
            return;
        if (cl.migrateTenant(0, cl.tenantNode(0) == 0 ? 1 : 0))
            next += kForcedPeriod;
    });
    L.tenantsS = ph.lap("run");

    // Every node shares one DomainSet and EpochScheduler.
    const KernelMark mark(cl.node(0).domains, cl.node(0).sched);
    const sim::Tick t0 = cl.now();
    cl.run(kFleetWindow);
    L.hostS = ph.lap(nullptr);

    Flat f;
    for (unsigned n = 0; n < cl.numNodes(); ++n)
        flatten(cl.node(n).telemetry.root(), f);
    collectPlatform(f, L);
    mark.collect(L);
    const double sim_ns = static_cast<double>(cl.now() - t0) / sim::kTickNs;
    setDmaBandwidth(L, sim_ns);
    std::vector<const svc::Tenant *> ts;
    for (std::size_t t = 0; t < cl.numTenants(); ++t)
        for (unsigned n = 0; n < cl.numNodes(); ++n)
            ts.push_back(&cl.binding(t, n));
    collectService(ts, sim_ns, L);

    L.layer["fleet.migrations"] =
        static_cast<double>(cl.migrationsCompleted());
    L.layer["fleet.migration_mb"] =
        static_cast<double>(cl.migrationBytes()) / 1e6;
    L.layer["fleet.blackout_p99_us"] =
        percentile(cl.blackoutHist(), 99) / 1e3;
    L.layer["fleet.barriers"] = static_cast<double>(barriers);
    L.check(cl.migrationsCompleted() > 0, "no migration completed");
    L.check(cl.migrationsStarted() == cl.migrationsCompleted(),
            "migration left in flight");
    L.programFp = splitmix(cl.fingerprint() ^ cl.now());
    return L;
}

// ---------------------------------------------------------- main

/** Metrics zero on workloads that do not exercise their layer. */
const char *const kLayerDefaults[] = {
    "svc.arrivals",       "svc.completed",        "svc.rejected",
    "svc.dropped",        "svc.verify_failures",  "svc.queue_p99_us",
    "svc.service_p99_us", "svc.reqs_per_batch",   "hv.traps_per_req",
    "fleet.migrations",   "fleet.migration_mb",   "fleet.blackout_p99_us",
    "fleet.barriers",
};

template <typename F>
std::vector<double>
sortedOf(const std::vector<Ledger> &reps, F get)
{
    std::vector<double> v;
    for (const Ledger &L : reps)
        v.push_back(get(L));
    std::sort(v.begin(), v.end());
    return v;
}

template <typename F>
double
medianOf(const std::vector<Ledger> &reps, F get)
{
    const std::vector<double> v = sortedOf(reps, get);
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/**
 * Mean of the middle 80% of the reps. The shared host this was tuned
 * on switches for seconds at a time between two speeds about 1.5x
 * apart; a median jumps between the two, a mean averages the mix.
 * The trim drops one-off outliers such as the first, cold rep.
 */
template <typename F>
double
trimmedMeanOf(const std::vector<Ledger> &reps, F get)
{
    const std::vector<double> v = sortedOf(reps, get);
    const std::size_t cut = v.size() / 10;
    double sum = 0;
    for (std::size_t i = cut; i < v.size() - cut; ++i)
        sum += v[i];
    return sum / static_cast<double>(v.size() - 2 * cut);
}

/**
 * This process image's peak resident set (VmHWM). getrusage's
 * ru_maxrss would also count the parent's image from before exec.
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    double kb = 0;
    while (std::fgets(line, sizeof(line), f))
        if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1)
            break;
    std::fclose(f);
    return kb / 1024.0;
}

unsigned
hostCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return std::max(1u, std::thread::hardware_concurrency());
}

void
printMap(const char *key, const std::map<std::string, double> &m,
         bool last)
{
    std::printf("\"%s\": {", key);
    bool first = true;
    for (const auto &[k, v] : m) {
        std::printf("%s\"%s\": %.17g", first ? "" : ", ", k.c_str(), v);
        first = false;
    }
    std::printf("}%s", last ? "" : ", ");
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_sim: %s\nusage: perfbench_sim --workload "
                 "dma_stream|svc_mixed|fleet_migrate --seed N "
                 "--seconds S [--trace 0|1] [--spans PATH]\n",
                 msg);
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const char *s)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (!*s || *end || errno || s[0] == '-')
        usage(("bad value for " + flag).c_str());
    return v;
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = parseCount(a, v);
        else if (a == "--seconds") {
            char *end = nullptr;
            o.seconds = std::strtod(v, &end);
            if (*end || !(o.seconds > 0 && o.seconds <= 3600))
                usage("bad value for --seconds");
        } else if (a == "--trace")
            o.trace = parseCount(a, v) != 0;
        else if (a == "--spans")
            o.spans = v;
        else
            usage(("unknown flag " + a).c_str());
    }
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    // Timed reps run at one sim-thread: on a shared 4-vCPU host the
    // pooled barrier's wall time varies by more than 2x from run to
    // run, more than any bound could absorb. fleet_migrate, the one
    // multi-domain workload, also runs one rep at its pool width,
    // min(4, nproc) but at least 2, whose results must match the
    // timed reps exactly.
    Workload fn = nullptr;
    constexpr unsigned threads = 1;
    unsigned pool = 0;
    if (o.workload == "dma_stream") {
        fn = dmaStream;
    } else if (o.workload == "svc_mixed") {
        fn = svcMixed;
    } else if (o.workload == "fleet_migrate") {
        fn = fleetMigrate;
        pool = std::clamp(hostCpus(), 2u, 4u);
    } else {
        usage("unknown workload");
    }

    std::vector<Ledger> plain, traced;
    Tracing tracing;
    const Clock::time_point start = Clock::now();
    for (unsigned k = 0;; ++k) {
        // With tracing, alternate untraced and traced reps so both
        // see the same host conditions.
        const bool tr = o.trace && k % 2 == 1;
        tracing.spans.rep = k;
        (tr ? traced : plain)
            .push_back(timedRep(fn, o, threads, tr ? &tracing : nullptr));
        if (seconds(start, Clock::now()) >= o.seconds &&
            plain.size() >= kMinReps &&
            (!o.trace || traced.size() >= kMinReps))
            break;
    }
    const double peak_rss_mb = peakRssMb();

    Ledger out = plain.front();
    const std::uint64_t fp = out.fingerprint();
    for (const auto *set : {&plain, &traced})
        for (const Ledger &L : *set)
            out.check(L.fingerprint() == fp,
                      "a repeat of the seed changed the simulated "
                      "results");
    double pool_s = 0;
    if (pool) {
        // The parallel core promises results independent of the
        // pool width; hold it to that on every run.
        const Ledger P = timedRep(fn, o, pool, nullptr);
        pool_s = P.norm(P.hostS);
        out.check(P.fingerprint() == fp,
                  "results differ between " + std::to_string(threads) +
                      " and " + std::to_string(pool) + " sim-threads");
    }
    out.failed += out.violations.size();

    const double host_s = trimmedMeanOf(
        plain, [](const Ledger &L) { return L.norm(L.hostS); });
    std::map<std::string, double> e2e = out.sim;
    e2e.try_emplace("sim_goodput_rps", 0.0);
    e2e["host_s"] = host_s;
    e2e["setup_s"] = medianOf(plain, [](const Ledger &L) {
        return L.norm(L.platformS + L.tenantsS);
    });
    e2e["peak_rss_mb"] = peak_rss_mb;

    std::map<std::string, double> layer = out.layer;
    for (const char *k : kLayerDefaults)
        layer.try_emplace(k, 0.0);
    layer.erase("accel.dma_issued");
    layer.erase("accel.dma_completed");
    // Host-time ledger: the exact counts above divided into the
    // untraced host_s.
    layer["sim.host_ns_per_event"] =
        ratio(host_s * 1e9, layer["sim.events"]);
    layer["sim.host_ns_per_epoch"] =
        ratio(host_s * 1e9, layer["sim.epochs"]);
    layer["ccip.host_ns_per_dma"] =
        ratio(host_s * 1e9,
              layer["ccip.dma_reads"] + layer["ccip.dma_writes"]);
    layer["svc.host_us_per_req"] =
        ratio(host_s * 1e6, layer["svc.completed"]);
    layer["sim.pool_host_s"] = pool_s;
    layer["sim.pool_speedup"] = ratio(host_s, pool_s);
    layer["setup.platform_s"] = medianOf(
        plain, [](const Ledger &L) { return L.norm(L.platformS); });
    layer["setup.tenants_s"] = medianOf(
        plain, [](const Ledger &L) { return L.norm(L.tenantsS); });
    // The same run phase in plain wall seconds, and the reference
    // loop's time: the host speed the run saw.
    layer["host.wall_s"] =
        trimmedMeanOf(plain, [](const Ledger &L) { return L.hostS; });
    layer["host.cal_ms"] =
        medianOf(plain, [](const Ledger &L) { return L.calS * 1e3; });
    if (o.trace) {
        layer["trace.overhead_frac"] =
            trimmedMeanOf(traced,
                          [](const Ledger &L) { return L.norm(L.hostS); }) /
                host_s -
            1.0;
        if (!o.spans.empty() &&
            !tracing.spans.write(o.spans, tracing.sink.counts)) {
            std::fprintf(stderr, "perfbench_sim: cannot write %s\n",
                         o.spans.c_str());
            return 2;
        }
    }

    std::printf("{\"workload\": \"%s\", \"seed\": %llu, "
                "\"sim_threads\": %u, \"pool_threads\": %u, "
                "\"reps\": %zu, "
                "\"traced_reps\": %zu, \"fingerprint\": \"%016llx\", "
                "\"correct\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"violations\": [",
                o.workload.c_str(),
                static_cast<unsigned long long>(o.seed), threads, pool,
                plain.size(), traced.size(),
                static_cast<unsigned long long>(fp),
                out.violations.empty() ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    for (std::size_t i = 0; i < out.violations.size(); ++i)
        std::printf("%s\"%s\"", i ? ", " : "",
                    out.violations[i].c_str());
    std::printf("], \"rep_host_s\": [");
    for (std::size_t i = 0; i < plain.size(); ++i)
        std::printf("%s%.6f", i ? ", " : "", plain[i].hostS);
    std::printf("], ");
    printMap("end_to_end", e2e, false);
    printMap("per_layer", layer, true);
    std::printf("}\n");
    return out.violations.empty() ? 0 : 1;
}
