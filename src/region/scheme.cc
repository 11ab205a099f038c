#include "region/scheme.hh"

#include <algorithm>
#include <utility>

#include "common/parse.hh"

namespace ramp
{

namespace
{

/** The relative predicates: bare words that set a flag. */
constexpr std::pair<const char *, bool RegionScheme::*> flagPredicates[] = {
    {"hot", &RegionScheme::requireHot},
    {"cold", &RegionScheme::requireCold},
    {"lowrisk", &RegionScheme::requireLowRisk},
    {"highrisk", &RegionScheme::requireHighRisk},
};

bool
parsePredicate(const std::string &pred, RegionScheme &scheme,
               std::string &error)
{
    for (const auto &[name, flag] : flagPredicates) {
        if (pred == name) {
            scheme.*flag = true;
            return true;
        }
    }
    // A numeric predicate: its prefix, then a non-negative number.
    const std::string_view text(pred);
    const auto number = [&](std::string_view prefix, auto &field) {
        const auto value = readNumber(text.substr(prefix.size()));
        return value && *value >= 0 && assignFinite(field, *value);
    };
    bool fits;
    if (text.starts_with("pages>=")) {
        fits = number("pages>=", scheme.minPages);
    } else if (text.starts_with("density>=")) {
        fits = number("density>=", scheme.minDensity);
        scheme.hasMinDensity = true;
    } else if (text.starts_with("avf<=")) {
        fits = number("avf<=", scheme.maxAvf);
        scheme.hasMaxAvf = true;
    } else if (text.starts_with("age>=")) {
        fits = number("age>=", scheme.minAge);
    } else if (text.starts_with("quota=")) {
        fits = number("quota=", scheme.quota);
    } else {
        error = "region scheme: unknown predicate '" + pred + "'";
        return false;
    }
    if (!fits)
        error = "region scheme: bad number in '" + pred + "'";
    return fits;
}

/** Rank actions so capacity frees before it is claimed. */
int
applyRank(RegionAction action)
{
    switch (action) {
      case RegionAction::Demote: return 0;
      case RegionAction::Pin: return 1;
      default: return 2;
    }
}

} // namespace

bool
RegionScheme::matches(const Region &region, double mean_density,
                      double mean_avf) const
{
    const double density = region.density();
    if (requireHot && !(density > mean_density))
        return false;
    if (requireCold && density > mean_density)
        return false;
    if (requireLowRisk && region.avf > mean_avf)
        return false;
    if (requireHighRisk && !(region.avf > mean_avf))
        return false;
    if (region.pages < minPages)
        return false;
    if (hasMinDensity && density < minDensity)
        return false;
    if (hasMaxAvf && region.avf > maxAvf)
        return false;
    if (region.age < minAge)
        return false;
    return true;
}

std::vector<RegionScheme>
parseRegionSchemes(const std::string &text, std::string &error)
{
    error.clear();
    std::vector<RegionScheme> schemes;
    for (const SpecEntry &entry : specEntries(text)) {
        const auto action =
            parseName(entry.head, RegionAction::Promote,
                      RegionAction::Pin, regionActionName);
        if (!action) {
            error = "region scheme: unknown action '" + entry.head +
                    "' (want promote|demote|pin)";
            return {};
        }
        RegionScheme scheme;
        scheme.action = *action;
        for (const std::string &pred : splitSpec(entry.body, ','))
            if (!parsePredicate(pred, scheme, error))
                return {};
        schemes.push_back(scheme);
    }
    if (schemes.empty())
        error = noEntriesError("region scheme", "schemes", text);
    return schemes;
}

std::string
formatRegionScheme(const RegionScheme &scheme)
{
    std::vector<std::string> preds;
    for (const auto &[name, flag] : flagPredicates)
        if (scheme.*flag)
            preds.push_back(name);
    if (scheme.minPages > 0)
        preds.push_back("pages>=" + std::to_string(scheme.minPages));
    if (scheme.hasMinDensity)
        preds.push_back("density>=" + formatNumber(scheme.minDensity));
    if (scheme.hasMaxAvf)
        preds.push_back("avf<=" + formatNumber(scheme.maxAvf));
    if (scheme.minAge > 0)
        preds.push_back("age>=" + std::to_string(scheme.minAge));
    if (scheme.quota != UINT64_MAX)
        preds.push_back("quota=" + std::to_string(scheme.quota));
    std::string out = std::string(regionActionName(scheme.action)) + ":";
    for (std::size_t i = 0; i < preds.size(); ++i) {
        if (i > 0)
            out += ',';
        out += preds[i];
    }
    return out;
}

std::string
formatRegionSchemes(const std::vector<RegionScheme> &schemes)
{
    return joinSpecs(schemes, formatRegionScheme);
}

SchemeEngine::SchemeEngine(std::vector<RegionScheme> schemes)
    : schemes_(std::move(schemes))
{
}

std::vector<RegionOp>
SchemeEngine::evaluate(const RegionMonitor &monitor,
                       const PlacementMap &map) const
{
    const double mean_density = monitor.meanDensity();
    const double mean_avf = monitor.meanAvf();
    const auto &regions = monitor.regions();

    std::vector<RegionOp> ops;
    std::vector<bool> acted(regions.size(), false);
    for (const RegionScheme &scheme : schemes_) {
        std::uint64_t quota = scheme.quota;
        for (std::size_t i = 0;
             i < regions.size() && quota > 0; ++i) {
            if (acted[i])
                continue; // first matching scheme owns the region
            const Region &region = regions[i];
            if (!scheme.matches(region, mean_density, mean_avf))
                continue;
            const MemoryId dst =
                scheme.action == RegionAction::Demote
                    ? MemoryId::DDR
                    : MemoryId::HBM;
            if (scheme.action == RegionAction::Pin) {
                // Re-pinning a pinned span is a no-op; spans pin
                // whole, so the first page tells.
                if (map.isPinned(region.first) &&
                    map.movablePages(region.first, region.pages,
                                     dst).empty())
                    continue;
            } else if (map.movablePages(region.first, region.pages,
                                        dst).empty()) {
                continue; // nothing would move: not an action
            }
            RegionOp op;
            op.first = region.first;
            op.pages = region.pages;
            op.region = static_cast<std::uint32_t>(i);
            op.action = scheme.action;
            op.density = static_cast<float>(region.density());
            op.avf = static_cast<float>(region.avf);
            op.threshHot = static_cast<float>(mean_density);
            op.threshRisk = static_cast<float>(mean_avf);
            ops.push_back(op);
            acted[i] = true;
            --quota;
        }
    }
    std::stable_sort(ops.begin(), ops.end(),
                     [](const RegionOp &a, const RegionOp &b) {
                         return applyRank(a.action) <
                                applyRank(b.action);
                     });
    actions_ += ops.size();
    return ops;
}

} // namespace ramp
