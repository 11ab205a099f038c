#include "faults/plan.hh"

#include <cmath>
#include <sstream>

#include "common/parse.hh"

namespace ramp
{

namespace
{

constexpr std::string_view grammar = "fault plan";

bool
parseField(const std::string &field, FaultEvent &event,
           std::string &error)
{
    std::string key, text;
    if (!splitKeyValue(grammar, field, key, text, error))
        return false;
    if (key == "tier") {
        if (text == "hbm") {
            event.tier = MemoryId::HBM;
        } else if (text == "ddr") {
            event.tier = MemoryId::DDR;
        } else {
            error = "fault plan: unknown tier '" + text +
                    "' (want hbm|ddr)";
            return false;
        }
        return true;
    }
    const auto bad_number = [&] {
        error = "fault plan: bad number in '" + field + "'";
        return false;
    };
    const auto value = readNumber(text);
    if (!value || *value < 0)
        return bad_number();
    const auto store = [&](auto &member) {
        return assignFinite(member, *value) || bad_number();
    };
    if (key == "page")
        return store(event.page);
    if (key == "epoch")
        return store(event.epoch);
    if (key == "count")
        return store(event.count);
    if (key == "pages")
        return store(event.pages);
    if (key == "pct") {
        // pct=inf stays for validate()'s "capacity pct above 100".
        event.pct = *value;
        return !std::isnan(*value) || bad_number();
    }
    error = "fault plan: unknown field '" + key + "'";
    return false;
}

bool
validate(const FaultEvent &event, std::string &error)
{
    if (event.kind == FaultEventKind::CapacityLoss) {
        if (event.pct <= 0 && event.pages == 0) {
            error = "fault plan: capacity event needs pct or pages";
            return false;
        }
        if (event.pct > 100) {
            error = "fault plan: capacity pct above 100";
            return false;
        }
        return true;
    }
    if (event.page == invalidPage) {
        error = std::string("fault plan: ") +
                faultEventKindName(event.kind) +
                " event needs a page";
        return false;
    }
    if (event.count == 0) {
        error = "fault plan: count must be positive";
        return false;
    }
    return true;
}

} // namespace

const char *
faultEventKindName(FaultEventKind kind)
{
    switch (kind) {
      case FaultEventKind::Correctable: return "correctable";
      case FaultEventKind::Uncorrected: return "uncorrected";
      case FaultEventKind::CapacityLoss: return "capacity";
    }
    return "?";
}

std::vector<FaultEvent>
parseFaultPlan(const std::string &text, std::string &error)
{
    error.clear();
    std::vector<FaultEvent> events;
    for (const SpecEntry &entry : specEntries(text)) {
        const auto kind =
            parseName(entry.head, FaultEventKind::Correctable,
                      FaultEventKind::CapacityLoss, faultEventKindName);
        if (!kind) {
            error = "fault plan: unknown kind '" + entry.head +
                    "' (want correctable|uncorrected|capacity)";
            return {};
        }
        FaultEvent event;
        event.kind = *kind;
        for (const std::string &field : splitSpec(entry.body, ','))
            if (!parseField(field, event, error))
                return {};
        if (!validate(event, error))
            return {};
        events.push_back(event);
    }
    if (events.empty())
        error = noEntriesError(grammar, "events", text);
    return events;
}

std::string
formatFaultEvent(const FaultEvent &event)
{
    std::ostringstream out;
    out << faultEventKindName(event.kind) << ":";
    if (event.kind == FaultEventKind::CapacityLoss) {
        out << "tier="
            << (event.tier == MemoryId::HBM ? "hbm" : "ddr");
        if (event.pct > 0)
            out << ",pct=" << formatNumber(event.pct);
        if (event.pages > 0)
            out << ",pages=" << event.pages;
    } else {
        out << "page=" << event.page;
        if (event.kind == FaultEventKind::Correctable &&
            event.count != 1)
            out << ",count=" << event.count;
    }
    out << ",epoch=" << event.epoch;
    return out.str();
}

std::string
formatFaultPlan(const std::vector<FaultEvent> &events)
{
    return joinSpecs(events, formatFaultEvent);
}

} // namespace ramp
