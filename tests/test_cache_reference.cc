/**
 * @file
 * Cross-validation of the set-associative cache against a naive
 * reference implementation on random access streams.
 */

#include <gtest/gtest.h>

#include <list>
#include <unordered_map>
#include <vector>

#include "cache/cache.hh"
#include "common/rng.hh"

namespace ramp
{
namespace
{

/** Obviously-correct LRU write-back cache on std::list. */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig &config)
        : config_(config), sets_(config.numSets())
    {
    }

    SetAssocCache::AccessResult
    access(Addr addr, bool is_write)
    {
        const std::uint64_t line = addr / config_.lineBytes;
        const std::uint64_t set_idx = line % sets_.size();
        auto &set = sets_[set_idx];

        SetAssocCache::AccessResult result;
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->line == line) {
                it->dirty = it->dirty || is_write;
                set.splice(set.begin(), set, it);
                result.hit = true;
                return result;
            }
        }
        if (set.size() >= config_.associativity) {
            const auto &victim = set.back();
            if (victim.dirty) {
                result.writeback = true;
                result.writebackAddr =
                    victim.line * config_.lineBytes;
            }
            set.pop_back();
        }
        set.push_front({line, is_write});
        return result;
    }

  private:
    struct Way
    {
        std::uint64_t line;
        bool dirty;
    };

    CacheConfig config_;
    std::vector<std::list<Way>> sets_;
};

class CacheFuzzTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 std::uint32_t>>
{
};

TEST_P(CacheFuzzTest, MatchesReferenceExactly)
{
    const auto [seed, ways] = GetParam();
    const CacheConfig config{4096, ways, 64};
    SetAssocCache cache(config);
    ReferenceCache reference(config);
    Rng rng(seed);

    for (int i = 0; i < 30000; ++i) {
        // Skewed address stream to exercise hits and evictions.
        const Addr addr =
            (rng.nextBool(0.5) ? rng.nextRange(2048)
                               : rng.nextRange(64 * 1024)) *
            64;
        const bool is_write = rng.nextBool(0.3);
        const auto got = cache.access(addr, is_write);
        const auto want = reference.access(addr, is_write);
        ASSERT_EQ(got.hit, want.hit) << "access " << i;
        ASSERT_EQ(got.writeback, want.writeback) << "access " << i;
        if (want.writeback) {
            ASSERT_EQ(got.writebackAddr, want.writebackAddr)
                << "access " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CacheFuzzTest,
    ::testing::Combine(::testing::Values(11, 22, 33),
                       ::testing::Values(1u, 2u, 4u, 8u)));

} // namespace
} // namespace ramp
