/**
 * @file
 * Declarative region schemes (DAMOS-style).
 *
 * A RegionScheme is "predicate -> action with a quota": it matches
 * regions by size, access density, AVF risk, and age, and asks for a
 * whole-region action (promote/demote/pin) at each epoch boundary,
 * at most `quota` regions per epoch. The textual grammar keeps
 * experiments declarative:
 *
 *   scheme  := action ':' pred (',' pred)*
 *   schemes := scheme (';' scheme)*
 *   action  := 'promote' | 'demote' | 'pin'
 *   pred    := 'hot' | 'cold'            (density vs footprint mean)
 *            | 'lowrisk' | 'highrisk'    (AVF vs footprint mean)
 *            | 'pages>=' N | 'density>=' X
 *            | 'avf<=' X   | 'age>=' N
 *            | 'quota=' N                (regions per epoch)
 *
 * e.g. "promote:hot,lowrisk,quota=4;demote:cold,age>=2,quota=4" is
 * the paper's Fig 4 balanced quadrant policy at region granularity.
 *
 * The SchemeEngine evaluates an ordered scheme list against a
 * RegionMonitor and the current PlacementMap residency and emits
 * RegionOps (first matching scheme wins per region; demotions are
 * ordered before pins and promotions so they free HBM capacity
 * first). Evaluation is pure and deterministic: schemes in declared
 * order, regions in address order.
 */

#ifndef RAMP_REGION_SCHEME_HH
#define RAMP_REGION_SCHEME_HH

#include <cstdint>
#include <string>
#include <vector>

#include "migration/engine.hh"
#include "placement/map.hh"
#include "region/region.hh"

namespace ramp
{

/** One declarative rule: predicate -> action, with a quota. */
struct RegionScheme
{
    RegionAction action = RegionAction::None;

    /** @{ @name Relative predicates (vs footprint-wide means) */
    bool requireHot = false;      ///< density > meanDensity
    bool requireCold = false;     ///< density <= meanDensity
    bool requireLowRisk = false;  ///< avf <= meanAvf
    bool requireHighRisk = false; ///< avf > meanAvf
    /** @} */

    /** @{ @name Absolute predicates (0 / unset = no constraint) */
    std::uint64_t minPages = 0;
    double minDensity = 0;
    bool hasMinDensity = false;
    double maxAvf = 0;
    bool hasMaxAvf = false;
    std::uint32_t minAge = 0;
    /** @} */

    /** Regions this scheme may act on per epoch. */
    std::uint64_t quota = UINT64_MAX;

    /** True when the region satisfies every predicate. */
    bool matches(const Region &region, double mean_density,
                 double mean_avf) const;

    bool operator==(const RegionScheme &other) const = default;
};

/**
 * Parse a scheme list ("promote:hot,quota=4;demote:cold").
 * @return the schemes, or empty with `error` set on bad grammar
 */
std::vector<RegionScheme> parseRegionSchemes(const std::string &text,
                                             std::string &error);

/** Canonical grammar spelling of one scheme (round-trips parse). */
std::string formatRegionScheme(const RegionScheme &scheme);

/** Canonical ';'-joined spelling of a scheme list. */
std::string formatRegionSchemes(
    const std::vector<RegionScheme> &schemes);

/** Evaluates an ordered scheme list at each epoch boundary. */
class SchemeEngine
{
  public:
    explicit SchemeEngine(std::vector<RegionScheme> schemes);

    /**
     * Match every region against the schemes (first match wins) and
     * emit the quota-bounded region ops, demotions first. Ops whose
     * span would not move any page (already resident, pinned, or no
     * capacity) are suppressed, so an op in the result always has
     * work to do.
     */
    std::vector<RegionOp> evaluate(const RegionMonitor &monitor,
                                   const PlacementMap &map) const;

    const std::vector<RegionScheme> &schemes() const
    {
        return schemes_;
    }

    /** Lifetime count of ops emitted (telemetry cross-check). */
    std::uint64_t actions() const { return actions_; }

  private:
    std::vector<RegionScheme> schemes_;
    mutable std::uint64_t actions_ = 0;
};

} // namespace ramp

#endif // RAMP_REGION_SCHEME_HH
