/**
 * @file
 * Factory for the fourteen benchmark accelerators by their Table 1
 * short names.
 */

#ifndef OPTIMUS_ACCEL_REGISTRY_HH
#define OPTIMUS_ACCEL_REGISTRY_HH

#include <memory>
#include <string>

#include "accel/accelerator.hh"

namespace optimus::accel {

/**
 * Construct accelerator @p app ("AES", "MD5", ..., "MB", "LL").
 * fatal() on an unknown name.
 */
std::unique_ptr<Accelerator> makeAccelerator(
    const std::string &app, sim::EventQueue &eq,
    const sim::PlatformParams &params, std::string instance_name,
    sim::Scope scope = {});

} // namespace optimus::accel

#endif // OPTIMUS_ACCEL_REGISTRY_HH
