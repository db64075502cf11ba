#include "accel/registry.hh"

#include "accel/crypto_accels.hh"
#include "accel/image_accels.hh"
#include "accel/linkedlist_accel.hh"
#include "accel/membench_accel.hh"
#include "accel/signal_accels.hh"
#include "accel/sssp_accel.hh"
#include "sim/logging.hh"

namespace optimus::accel {

std::unique_ptr<Accelerator>
makeAccelerator(const std::string &app, sim::EventQueue &eq,
                const sim::PlatformParams &params,
                std::string instance_name, sim::Scope scope)
{
    if (app == "AES")
        return std::make_unique<AesAccel>(eq, params,
                                          std::move(instance_name),
                                          scope);
    // The state capacities size STATE_SIZE, and so the lines each
    // PREEMPT moves.
    if (app == "MD5")
        return std::make_unique<HashAccel<algo::Md5>>(
            eq, params, std::move(instance_name), 100,
            StreamingAccelerator::Tuning{64, 3}, "MD5", 128, scope);
    if (app == "SHA")
        return std::make_unique<HashAccel<algo::Sha512>>(
            eq, params, std::move(instance_name), 200,
            StreamingAccelerator::Tuning{64, 6}, "SHA-512", 256, scope);
    if (app == "FIR")
        return std::make_unique<FirAccel>(eq, params,
                                          std::move(instance_name),
                                          scope);
    if (app == "GRN")
        return std::make_unique<GrnAccel>(eq, params,
                                          std::move(instance_name),
                                          scope);
    if (app == "RSD")
        return std::make_unique<RsdAccel>(eq, params,
                                          std::move(instance_name),
                                          scope);
    if (app == "SW")
        return std::make_unique<SwAccel>(eq, params,
                                         std::move(instance_name),
                                         scope);
    if (app == "GAU")
        return std::make_unique<GauAccel>(eq, params,
                                          std::move(instance_name),
                                          scope);
    if (app == "GRS")
        return std::make_unique<GrsAccel>(eq, params,
                                          std::move(instance_name),
                                          scope);
    if (app == "SBL")
        return std::make_unique<SblAccel>(eq, params,
                                          std::move(instance_name),
                                          scope);
    if (app == "SSSP")
        return std::make_unique<SsspAccel>(eq, params,
                                           std::move(instance_name),
                                           scope);
    if (app == "BTC")
        return std::make_unique<BtcAccel>(eq, params,
                                          std::move(instance_name),
                                          scope);
    if (app == "MB")
        return std::make_unique<MembenchAccel>(
            eq, params, std::move(instance_name), scope);
    if (app == "LL")
        return std::make_unique<LinkedlistAccel>(
            eq, params, std::move(instance_name), scope);
    OPTIMUS_FATAL("unknown accelerator '%s'", app.c_str());
}

} // namespace optimus::accel
