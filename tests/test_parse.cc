/**
 * @file
 * Tests for the shared input parser (src/common/parse): the
 * spec-list tokenizer, the finite-number and count readers, every
 * grammar and flag reader built on them, and a round-trip property
 * over the fault-plan, health-rule and region-scheme grammars.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/parse.hh"
#include "common/rng.hh"
#include "faults/plan.hh"
#include "health/rules.hh"
#include "perf/artifact.hh"
#include "region/scheme.hh"
#include "runner/error.hh"
#include "runner/harness.hh"

namespace ramp
{
namespace
{

TEST(Parse, SpecListTokenizer)
{
    const auto entries =
        specEntries(" a : x , ,y ;; b ;\tc:;d: ,z; ");
    ASSERT_EQ(entries.size(), 4u);
    EXPECT_EQ(entries[0].text, "a : x , ,y");
    EXPECT_EQ(entries[0].head, "a");
    EXPECT_EQ(entries[0].body, "x , ,y");
    EXPECT_TRUE(entries[0].hasBody);
    EXPECT_EQ(splitSpec(entries[0].body, ','),
              (std::vector<std::string>{"x", "y"}));
    EXPECT_EQ(entries[1].head, "b");
    EXPECT_FALSE(entries[1].hasBody);
    EXPECT_TRUE(splitSpec(entries[1].body, ',').empty());
    EXPECT_EQ(entries[2].text, "c:");
    EXPECT_TRUE(entries[2].hasBody);
    EXPECT_EQ(entries[2].body, "");
    EXPECT_EQ(entries[3].body, ",z");
    EXPECT_TRUE(specEntries(" ; ;").empty());

    std::string key, value, error;
    EXPECT_TRUE(splitKeyValue("g", " k = v ", key, value, error));
    EXPECT_EQ(key, "k");
    EXPECT_EQ(value, "v");
    EXPECT_FALSE(splitKeyValue("g", "k", key, value, error));
    EXPECT_EQ(error, "g: field 'k' needs key=value");
    EXPECT_EQ(noEntriesError("g", "things", " ;"),
              "g: no things in ' ;'");
    EXPECT_EQ(formatNumber(12.3456789), "12.3456789");
    EXPECT_EQ(formatNumber(25), "25");
    EXPECT_EQ(joinSpecs(std::vector<int>{1, 2, 3},
                        [](int i) { return std::to_string(i); }),
              "1;2;3");
}

TEST(Parse, FiniteReader)
{
    // Everything strtod accepts as a whole token still reads.
    EXPECT_EQ(readFinite(" +1.5e2"), 150.0);
    EXPECT_EQ(readFinite("0x10"), 16.0);
    EXPECT_EQ(readFinite("-0.25"), -0.25);
    EXPECT_EQ(readNumber("nan").has_value(), true);
    for (const char *bad : {"", " ", "1x", "1 2", "abc"})
        EXPECT_FALSE(readNumber(bad).has_value()) << bad;

    // ... but not as a value: non-finite and out-of-range casts.
    for (const char *bad : {"nan", "-nan", "inf", "-inf", "infinity",
                            "1e400"})
        EXPECT_FALSE(readFinite(bad).has_value()) << bad;

    using u32 = std::uint32_t;
    EXPECT_EQ(readFinite<u32>("4294967295"), 4294967295u);
    EXPECT_EQ(readFinite<u32>("4294967295.9"), 4294967295u);
    EXPECT_EQ(readFinite<u32>("2.9"), 2u);
    EXPECT_EQ(readFinite<u32>("-0.5"), 0u);
    EXPECT_FALSE(readFinite<u32>("4294967296").has_value());
    EXPECT_FALSE(readFinite<u32>("-1").has_value());
    EXPECT_FALSE(readFinite<u32>("1e10").has_value());
    EXPECT_EQ(readFinite<std::int32_t>("-2147483648"),
              std::numeric_limits<std::int32_t>::min());
    EXPECT_FALSE(readFinite<std::int32_t>("-2147483649").has_value());
    EXPECT_FALSE(readFinite<std::int32_t>("2147483648").has_value());
    EXPECT_EQ(readFinite<std::uint64_t>("1e19"),
              10'000'000'000'000'000'000ull);
    EXPECT_FALSE(
        readFinite<std::uint64_t>("18446744073709551616").has_value());

    std::uint64_t field = 7;
    EXPECT_FALSE(assignFinite(field, 1e30));
    EXPECT_EQ(field, 7u);
}

TEST(Parse, CountReader)
{
    EXPECT_EQ(readCount("12"), 12u);
    EXPECT_EQ(readCount(" +7"), 7u);
    EXPECT_EQ(readCount("-0"), 0u);
    EXPECT_EQ(readCount("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(readCount("4", 4), 4u);
    for (const char *bad :
         {"", "-1", "-18446744073709551615", "18446744073709551616",
          "99999999999999999999999", "1x", "1.5", "0x10", "abc"})
        EXPECT_FALSE(readCount(bad).has_value()) << bad;
    EXPECT_FALSE(readCount("5", 4).has_value());
    EXPECT_FALSE(readCount("4294967297", 4294967295u).has_value());
}

/** The error a grammar reports for `text`; "" when it parses. */
template <typename T>
std::string
grammarError(std::vector<T> (*parse)(const std::string &,
                                     std::string &),
             const std::string &text)
{
    std::string error;
    const auto parsed = parse(text, error);
    EXPECT_EQ(parsed.empty(), !error.empty()) << text;
    return error;
}

/** The usage message RunnerOptions::parse() throws for argv. */
std::string
runnerError(std::vector<const char *> argv)
{
    try {
        runner::RunnerOptions::parse(static_cast<int>(argv.size()),
                                     const_cast<char **>(argv.data()));
    } catch (const runner::PassError &error) {
        EXPECT_EQ(error.code(), runner::PassErrorCode::Usage);
        return error.what();
    }
    return "";
}

struct MalformedCase
{
    std::function<std::string(const std::string &)> reader;
    const char *input;
    const char *message;
};

TEST(MalformedInput, ExactMessageFromEveryGrammarAndFlagReader)
{
    const auto plan = [](const std::string &text) {
        return grammarError(parseFaultPlan, text);
    };
    const auto rules = [](const std::string &text) {
        return grammarError(health::parseHealthRules, text);
    };
    const auto schemes = [](const std::string &text) {
        return grammarError(parseRegionSchemes, text);
    };
    const auto flag = [](const char *name) {
        return [name](const std::string &text) {
            return runnerError({"tool", name, text.c_str()});
        };
    };
    const auto env = [](const char *name) {
        return [name](const std::string &text) {
            ::setenv(name, text.c_str(), 1);
            const std::string message = runnerError({"tool"});
            ::unsetenv(name);
            return message;
        };
    };
    const MalformedCase cases[] = {
        // Rejected before the shared parser, with these messages.
        {plan, "", "fault plan: no events in ''"},
        {plan, ";;", "fault plan: no events in ';;'"},
        {plan, "meltdown:page=1",
         "fault plan: unknown kind 'meltdown' "
         "(want correctable|uncorrected|capacity)"},
        {plan, " uncorrected : page = 7 ; meltdown",
         "fault plan: unknown kind 'meltdown' "
         "(want correctable|uncorrected|capacity)"},
        {plan, "uncorrected:epoch=2",
         "fault plan: uncorrected event needs a page"},
        {plan, "correctable:page=1,count=0",
         "fault plan: count must be positive"},
        {plan, "capacity:tier=hbm,epoch=2",
         "fault plan: capacity event needs pct or pages"},
        {plan, "capacity:tier=hbm,pct=150",
         "fault plan: capacity pct above 100"},
        {plan, "capacity:tier=hbm,pct=inf",
         "fault plan: capacity pct above 100"},
        {plan, "capacity:tier=l4,pct=10",
         "fault plan: unknown tier 'l4' (want hbm|ddr)"},
        {plan, "uncorrected:page=-3",
         "fault plan: bad number in 'page=-3'"},
        {plan, "uncorrected:page=-inf",
         "fault plan: bad number in 'page=-inf'"},
        {plan, "uncorrected:page=1x",
         "fault plan: bad number in 'page=1x'"},
        {plan, "uncorrected:page=", "fault plan: bad number in 'page='"},
        {plan, "uncorrected:page=1,epoch",
         "fault plan: field 'epoch' needs key=value"},
        {plan, "uncorrected:page=1,epock=3",
         "fault plan: unknown field 'epock'"},
        {plan, "uncorrected:page=1,bogus=nan",
         "fault plan: unknown field 'bogus'"},
        {rules, "", "health rules: no rules in ''"},
        {rules, ";;", "health rules: no rules in ';;'"},
        {rules, "alert",
         "health rules: rule 'alert' needs severity:signal"},
        {rules, "fatal:p99_slowdown>2",
         "health rules: unknown severity 'fatal' (want warn|alert)"},
        {rules, "alert:", "health rules: rule 'alert:' names no signal"},
        {rules, "alert:,for=2",
         "health rules: rule 'alert:,for=2' names no signal"},
        {rules, "alert:p99_slowdown",
         "health rules: p99_slowdown needs a > or < threshold"},
        {rules, "alert:p99_slowdown>",
         "health rules: bad threshold in 'p99_slowdown>'"},
        {rules, "alert:p99_slowdown>abc",
         "health rules: bad threshold in 'p99_slowdown>abc'"},
        {rules, "alert:shard_degraded>1",
         "health rules: shard_degraded takes no threshold"},
        {rules, "alert:no_such_signal>1",
         "health rules: unknown signal 'no_such_signal'"},
        {rules, "alert:bogus>nan", "health rules: unknown signal 'bogus'"},
        {rules, "alert:p99_slowdown>2,for=0",
         "health rules: for= must be at least 1"},
        {rules, "alert:p99_slowdown>2,for=-inf",
         "health rules: for= must be at least 1"},
        {rules, "alert:p99_slowdown>2,for=abc",
         "health rules: bad number in 'for=abc'"},
        {rules, "alert:p99_slowdown>2,for",
         "health rules: field 'for' needs key=value"},
        {rules, "alert:p99_slowdown>2,bogus=1",
         "health rules: unknown field 'bogus' (want for|tenant|shard)"},
        {rules, "alert:p99_slowdown>2,bogus=nan",
         "health rules: unknown field 'bogus' (want for|tenant|shard)"},
        {rules, "alert:slowdown>2,tenant=0",
         "health rules: tenant= must be a positive id"},
        {rules, "alert:p99_slowdown>2,tenant=1",
         "health rules: tenant= only applies to per-tenant signals, "
         "not p99_slowdown"},
        {rules, "alert:slowdown>2,shard=0",
         "health rules: shard= only applies to per-shard signals, "
         "not slowdown"},
        {rules, "alert:shard_occupancy>0.5,shard=-1",
         "health rules: shard= must be non-negative"},
        {schemes, "", "region scheme: no schemes in ''"},
        {schemes, ";;", "region scheme: no schemes in ';;'"},
        {schemes, "evict:hot",
         "region scheme: unknown action 'evict' "
         "(want promote|demote|pin)"},
        {schemes, "promote:sideways",
         "region scheme: unknown predicate 'sideways'"},
        {schemes, "promote:hot,bogus",
         "region scheme: unknown predicate 'bogus'"},
        {schemes, "promote:pages>=x",
         "region scheme: bad number in 'pages>=x'"},
        {schemes, "promote:density>=-1",
         "region scheme: bad number in 'density>=-1'"},
        {schemes, "promote:quota=",
         "region scheme: bad number in 'quota='"},
        {schemes, "promote:avf<=-inf",
         "region scheme: bad number in 'avf<=-inf'"},
        {flag("--jobs"), "zero",
         "--jobs needs a positive integer, got 'zero'"},
        {flag("--jobs"), "0", "--jobs needs a positive integer, got '0'"},
        {flag("--jobs"), "-1",
         "--jobs needs a positive integer, got '-1'"},
        {flag("--sample-ms"), "5",
         "--sample-ms needs an integer of at least 10 milliseconds, "
         "got '5'"},
        {flag("--pass-timeout"), "nope",
         "--pass-timeout needs a positive number of seconds, got "
         "'nope'"},
        {flag("--pass-timeout"), "-1",
         "--pass-timeout needs a positive number of seconds, got '-1'"},
        {flag("--pass-timeout"), "nan",
         "--pass-timeout needs a positive number of seconds, got "
         "'nan'"},
        {env("RAMP_EVENTS_LIMIT"), "abc",
         "RAMP_EVENTS_LIMIT needs a non-negative integer, got 'abc'"},
        {env("RAMP_EVENTS_DUMP"), "-1",
         "RAMP_EVENTS_DUMP needs a non-negative integer, got '-1'"},

        // Cast with undefined behaviour, wrapped or meaningless
        // before; now the grammar's or flag's existing message.
        {plan, "uncorrected:page=nan",
         "fault plan: bad number in 'page=nan'"},
        {plan, "uncorrected:page=1e30",
         "fault plan: bad number in 'page=1e30'"},
        {plan, "uncorrected:page=7,epoch=inf",
         "fault plan: bad number in 'epoch=inf'"},
        {plan, "correctable:page=7,count=1e20",
         "fault plan: bad number in 'count=1e20'"},
        {plan, "capacity:tier=hbm,pct=nan",
         "fault plan: bad number in 'pct=nan'"},
        {plan, "capacity:tier=hbm,pages=nan",
         "fault plan: bad number in 'pages=nan'"},
        {rules, "warn:fairness<nan",
         "health rules: bad threshold in 'fairness<nan'"},
        {rules, "warn:churn>5,for=nan",
         "health rules: bad number in 'for=nan'"},
        {rules, "warn:churn>5,for=1e10",
         "health rules: bad number in 'for=1e10'"},
        {rules, "warn:slowdown>2,tenant=inf",
         "health rules: bad number in 'tenant=inf'"},
        {rules, "warn:shard_occupancy>0.5,shard=2147483648",
         "health rules: bad number in 'shard=2147483648'"},
        {schemes, "promote:pages>=nan",
         "region scheme: bad number in 'pages>=nan'"},
        {schemes, "promote:density>=inf",
         "region scheme: bad number in 'density>=inf'"},
        {schemes, "promote:avf<=nan",
         "region scheme: bad number in 'avf<=nan'"},
        {schemes, "promote:age>=1e10",
         "region scheme: bad number in 'age>=1e10'"},
        {schemes, "promote:quota=1e30",
         "region scheme: bad number in 'quota=1e30'"},
        {flag("--jobs"), "4294967297",
         "--jobs needs a positive integer, got '4294967297'"},
        {flag("--sample-ms"), "4294967306",
         "--sample-ms needs an integer of at least 10 milliseconds, "
         "got '4294967306'"},
        {flag("--pass-timeout"), "inf",
         "--pass-timeout needs a positive number of seconds, got "
         "'inf'"},
        {env("RAMP_EVENTS_LIMIT"), "99999999999999999999",
         "RAMP_EVENTS_LIMIT needs a non-negative integer, got "
         "'99999999999999999999'"},
        {env("RAMP_JOBS"), "4x",
         "--jobs needs a positive integer, got '4x'"},
        {env("RAMP_JOBS"), "abc",
         "--jobs needs a positive integer, got 'abc'"},
    };
    for (const MalformedCase &c : cases)
        EXPECT_EQ(c.reader(c.input), c.message) << "'" << c.input << "'";

    // The tools' and bench binaries' readers print to stderr and
    // exit with usage status 2.
    using ::testing::ExitedWithCode;
    const auto usage = [](const std::string &line) {
        // A string matcher matches the whole of stderr.
        return ::testing::Matcher<const std::string &>(line + "\n");
    };
    EXPECT_EXIT(perf::parseCountArg("ramp_health", "--rule", "abc"),
                ExitedWithCode(2),
                usage("ramp_health: --rule needs a non-negative "
                      "integer, got 'abc'"));
    EXPECT_EXIT(perf::parseCountArg("region_scale", "--pages", "0", 1),
                ExitedWithCode(2),
                usage("region_scale: --pages needs a positive integer, "
                      "got '0'"));
    EXPECT_EXIT(perf::parsePositiveArg("bench_diff", "--relax", "0"),
                ExitedWithCode(2),
                usage("bench_diff: --relax needs a positive number, "
                      "got '0'"));
    EXPECT_EXIT(perf::parsePositiveArg("ramp_prof", "--top", "nan"),
                ExitedWithCode(2),
                usage("ramp_prof: --top needs a positive number, got "
                      "'nan'"));
    std::size_t at = 0;
    const std::vector<std::string> positional = {"--tenants"};
    EXPECT_EXIT(perf::flagValue("datacenter_service", positional, at,
                                "--tenants"),
                ExitedWithCode(2),
                usage("datacenter_service: --tenants needs a value"));

    EXPECT_EXIT(perf::parseCountArg("ramp_explain", "--top-regret", "-1"),
                ExitedWithCode(2),
                usage("ramp_explain: --top-regret needs a non-negative "
                      "integer, got '-1'"));
    EXPECT_EXIT(perf::parseCountArg("datacenter_service", "--tenants",
                                    "18446744073709551616"),
                ExitedWithCode(2),
                usage("datacenter_service: --tenants needs a "
                      "non-negative integer, got "
                      "'18446744073709551616'"));
    EXPECT_EXIT(perf::parseCountArg("datacenter_service", "--shards",
                                    "4294967297", 0, 4294967295u),
                ExitedWithCode(2),
                usage("datacenter_service: --shards needs a "
                      "non-negative integer, got '4294967297'"));
    EXPECT_EXIT(perf::parsePositiveArg("bench_diff", "--relax", "inf"),
                ExitedWithCode(2),
                usage("bench_diff: --relax needs a positive number, "
                      "got 'inf'"));
    EXPECT_EXIT(perf::parsePositiveArg<std::size_t>("ramp_prof", "--top",
                                                    "1e30"),
                ExitedWithCode(2),
                usage("ramp_prof: --top needs a positive number, got "
                      "'1e30'"));

    // Accepted spellings keep their values.
    EXPECT_EQ(perf::parseCountArg("t", "--n", " +12"), 12u);
    EXPECT_EQ(perf::parsePositiveArg<std::size_t>("t", "--n", "2.9"),
              2u);
    EXPECT_DOUBLE_EQ(perf::parsePositiveArg("t", "--n", "1e-3"), 1e-3);
}

// ---------------------------------------------------------------
// Round-trip property over the three grammars

/** A value of at most 9 significant digits below 10^(9 - scale). */
double
decimal(Rng &rng, int min_scale, int max_scale)
{
    const int scale = min_scale + static_cast<int>(rng.nextRange(
                                      max_scale - min_scale + 1));
    return std::strtod((std::to_string(rng.nextRange(1'000'000'000)) +
                        "e-" + std::to_string(scale))
                           .c_str(),
                       nullptr);
}

/** A count below a billion, at least `min`. */
std::uint64_t
count(Rng &rng, std::uint64_t min = 0)
{
    return min + rng.nextRange(1'000'000'000 - min);
}

FaultEvent
randomEvent(Rng &rng)
{
    FaultEvent event;
    event.kind = static_cast<FaultEventKind>(rng.nextRange(3));
    event.epoch = count(rng);
    if (event.kind == FaultEventKind::CapacityLoss) {
        event.tier = rng.nextBool(0.5) ? MemoryId::HBM : MemoryId::DDR;
        if (rng.nextBool(0.7))
            event.pct = decimal(rng, 7, 15); // below 100
        if (event.pct == 0 || rng.nextBool(0.3))
            event.pages = count(rng, 1);
    } else {
        event.page = count(rng);
        if (event.kind == FaultEventKind::Correctable)
            event.count = count(rng, 1);
    }
    return event;
}

health::HealthRule
randomRule(Rng &rng)
{
    using namespace health;
    HealthRule rule;
    rule.severity = rng.nextBool(0.5) ? Severity::Warn : Severity::Alert;
    rule.signal = static_cast<HealthSignal>(
        rng.nextRange(static_cast<int>(HealthSignal::ShardDegraded) + 1));
    if (!healthSignalIsBoolean(rule.signal)) {
        rule.cmp = rng.nextBool(0.5) ? Comparator::Greater
                                     : Comparator::Less;
        rule.threshold = decimal(rng, 0, 12) * (rng.nextBool(0.2) ? -1 : 1);
    }
    if (rng.nextBool(0.5))
        rule.forEpochs = static_cast<std::uint32_t>(count(rng, 1));
    if ((rule.signal == HealthSignal::Slowdown ||
         rule.signal == HealthSignal::HbmShare) &&
        rng.nextBool(0.5))
        rule.tenant = static_cast<std::uint32_t>(count(rng, 1));
    if ((rule.signal == HealthSignal::ShardOccupancy ||
         rule.signal == HealthSignal::ShardDegraded) &&
        rng.nextBool(0.5))
        rule.shard = static_cast<std::int32_t>(count(rng));
    return rule;
}

RegionScheme
randomScheme(Rng &rng)
{
    RegionScheme scheme;
    const RegionAction actions[] = {RegionAction::Promote,
                                    RegionAction::Demote,
                                    RegionAction::Pin};
    scheme.action = actions[rng.nextRange(3)];
    scheme.requireHot = rng.nextBool(0.3);
    scheme.requireCold = rng.nextBool(0.3);
    scheme.requireLowRisk = rng.nextBool(0.3);
    scheme.requireHighRisk = rng.nextBool(0.3);
    if (rng.nextBool(0.5))
        scheme.minPages = count(rng);
    if ((scheme.hasMinDensity = rng.nextBool(0.5)))
        scheme.minDensity = decimal(rng, 0, 12);
    if ((scheme.hasMaxAvf = rng.nextBool(0.5)))
        scheme.maxAvf = decimal(rng, 0, 12);
    if (rng.nextBool(0.5))
        scheme.minAge = static_cast<std::uint32_t>(count(rng));
    if (rng.nextBool(0.5))
        scheme.quota = count(rng);
    return scheme;
}

/**
 * format -> parse gives back the same structs and format is a fixed
 * point, for 500 random lists of 1-4 valid items.
 */
template <typename T, typename Random, typename Parse, typename Format>
void
checkRoundTrip(Rng &rng, Random random, Parse parse, Format format)
{
    for (int trial = 0; trial < 500; ++trial) {
        std::vector<T> items(1 + rng.nextRange(4));
        for (T &item : items)
            item = random(rng);
        const std::string text = format(items);
        std::string error;
        const auto parsed = parse(text, error);
        ASSERT_TRUE(error.empty()) << text << ": " << error;
        EXPECT_TRUE(parsed == items) << text;
        EXPECT_EQ(format(parsed), text);
    }
}

/**
 * Random strings over a grammar's alphabet either parse with no
 * error or fail with no result; what parses formats to a spec that
 * parses again and is a fixed point of format.
 */
template <typename Parse, typename Format>
void
checkRandomStrings(Rng &rng, const std::vector<std::string> &alphabet,
                   Parse parse, Format format)
{
    int parsed_count = 0;
    for (int trial = 0; trial < 4000; ++trial) {
        std::string text;
        for (auto n = rng.nextRange(12); n > 0; --n)
            text += alphabet[rng.nextRange(alphabet.size())];
        std::string error;
        const auto parsed = parse(text, error);
        ASSERT_NE(parsed.empty(), error.empty()) << "'" << text << "'";
        if (parsed.empty())
            continue;
        ++parsed_count;
        const std::string canonical = format(parsed);
        const auto again = parse(canonical, error);
        ASSERT_TRUE(error.empty())
            << "'" << text << "' -> '" << canonical << "': " << error;
        EXPECT_EQ(format(again), canonical) << "'" << text << "'";
    }
    EXPECT_GT(parsed_count, 0);
}

const std::vector<std::string> numberTokens = {
    "0", "1", "7", "12.5", "1e3", "-", "+", ".", "e", "nan", "inf",
    "1e30", "4294967296", "18446744073709551616", " ", ",", ";", ":",
    "="};

std::vector<std::string>
alphabet(std::vector<std::string> words)
{
    words.insert(words.end(), numberTokens.begin(), numberTokens.end());
    return words;
}

TEST(SpecGrammars, FormatParseRoundTripProperty)
{
    Rng rng(20181);
    checkRoundTrip<FaultEvent>(rng, randomEvent, parseFaultPlan,
                               formatFaultPlan);
    checkRoundTrip<health::HealthRule>(rng, randomRule,
                                       health::parseHealthRules,
                                       health::formatHealthRules);
    checkRoundTrip<RegionScheme>(rng, randomScheme, parseRegionSchemes,
                                 formatRegionSchemes);

    checkRandomStrings(
        rng,
        alphabet({"correctable:", "uncorrected:", "capacity:", "page=",
                  "epoch=", "count=", "pct=", "pages=", "tier=", "hbm",
                  "ddr", "uncorrected:page=", "capacity:pct="}),
        parseFaultPlan, formatFaultPlan);
    checkRandomStrings(
        rng,
        alphabet({"warn:", "alert:", "p99_slowdown>", "fairness<",
                  "churn>", "degraded", "slowdown>", "hbm_share<",
                  "shard_occupancy>", "shard_degraded", ",for=",
                  ",tenant=", ",shard=", ">", "<", "alert:churn>"}),
        health::parseHealthRules, health::formatHealthRules);
    checkRandomStrings(
        rng,
        alphabet({"promote:", "demote:", "pin:", "hot", "cold",
                  "lowrisk", "highrisk", "pages>=", "density>=",
                  "avf<=", "age>=", "quota=", "promote:density>="}),
        parseRegionSchemes, formatRegionSchemes);
}

} // namespace
} // namespace ramp
