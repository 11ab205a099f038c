/**
 * @file
 * Error-correction schemes of the two memories (Table 1).
 *
 * The off-package DDR uses x4 single-ChipKill (symbol correction:
 * any single-chip fault is corrected); the die-stacked memory uses
 * SEC-DED, which corrects one bit per word and is defeated by any
 * multi-bit pattern — including every coarse single-chip fault mode,
 * which is precisely the reliability gap the paper exploits.
 */

#ifndef RAMP_RELIABILITY_ECC_HH
#define RAMP_RELIABILITY_ECC_HH

#include <span>

#include "reliability/fault.hh"

namespace ramp
{

/** Correction scheme applied by a memory controller. */
enum class EccKind
{
    /** No correction: any fault is an uncorrected error. */
    None,

    /** Single-error-correct, double-error-detect per word. */
    SecDed,

    /** x4 symbol correction: any single-chip fault corrected. */
    ChipKill,
};

/** Classification of a fault set against a scheme. */
enum class EccOutcome
{
    /** No faults present. */
    NoError,

    /** All error patterns corrected. */
    Corrected,

    /** Some pattern exceeded the code: uncorrected error. */
    Uncorrected,
};

/**
 * Classify the faults present in one rank against an ECC scheme.
 *
 * A fault set is uncorrected when a single fault already defeats the
 * code (SEC-DED vs any multi-bit mode) or when two faults can land in
 * the same codeword and jointly exceed the correction capability
 * (two bits for SEC-DED, two chips for ChipKill).
 */
EccOutcome classifyFaults(EccKind kind,
                          std::span<const FaultRecord> faults,
                          const ChipGeometry &geometry);

} // namespace ramp

#endif // RAMP_RELIABILITY_ECC_HH
