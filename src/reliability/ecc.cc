#include "reliability/ecc.hh"

namespace ramp
{

EccOutcome
classifyFaults(EccKind kind, std::span<const FaultRecord> faults,
               const ChipGeometry &geometry)
{
    if (faults.empty())
        return EccOutcome::NoError;

    switch (kind) {
      case EccKind::None:
        return EccOutcome::Uncorrected;

      case EccKind::SecDed:
        // A single multi-bit fault defeats per-word correction.
        for (const auto &fault : faults)
            if (fault.multiBit(geometry))
                return EccOutcome::Uncorrected;
        // Two single-bit faults sharing a word defeat it too.
        for (std::size_t i = 0; i < faults.size(); ++i)
            for (std::size_t j = i + 1; j < faults.size(); ++j)
                if (defeatsSingleBitCorrection(faults[i], faults[j],
                                               geometry))
                    return EccOutcome::Uncorrected;
        return EccOutcome::Corrected;

      case EccKind::ChipKill:
        // Any fault confined to one chip is corrected; two faults on
        // different chips overlapping the same word are not.
        for (std::size_t i = 0; i < faults.size(); ++i) {
            for (std::size_t j = i + 1; j < faults.size(); ++j) {
                if (faults[i].chip != faults[j].chip &&
                    sameWordPossible(faults[i], faults[j]))
                    return EccOutcome::Uncorrected;
            }
        }
        return EccOutcome::Corrected;
    }
    return EccOutcome::Uncorrected;
}

} // namespace ramp
