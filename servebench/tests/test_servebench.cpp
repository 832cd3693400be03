/**
 * @file
 * Unit tests of the serving benchmark's statistics, span accounting
 * and request plan.
 */

#include <gtest/gtest.h>

#include <vector>

#include "stats.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace servebench {
namespace {

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(double(i));
    return v;
}

TEST(TailPercentile, KeepsTenSamplesBeyondTheReportedValue)
{
    // 25 samples: rank 15 is the highest with 10 above it (p60).
    const TailPercentile tail = tailPercentile(oneTo(25));
    EXPECT_TRUE(tail.supported);
    EXPECT_DOUBLE_EQ(tail.value, 15.0);
    EXPECT_DOUBLE_EQ(tail.percentile, 60.0);
    EXPECT_EQ(tail.beyond, 10);
    EXPECT_EQ(tail.samples, 25);
}

TEST(TailPercentile, CapsLargeSamplesAtP999)
{
    // 20000 samples would support rank 19990; the cap stops at p99.9,
    // rank 19980, with 20 samples beyond.
    const TailPercentile tail = tailPercentile(oneTo(20000));
    EXPECT_DOUBLE_EQ(tail.percentile, 99.9);
    EXPECT_DOUBLE_EQ(tail.value, 19980.0);
    EXPECT_EQ(tail.beyond, 20);
}

TEST(TailPercentile, BoundaryAndUnsupportedCounts)
{
    const TailPercentile eleven = tailPercentile(oneTo(11));
    EXPECT_TRUE(eleven.supported);
    EXPECT_DOUBLE_EQ(eleven.value, 1.0);
    EXPECT_EQ(eleven.beyond, 10);

    const TailPercentile ten = tailPercentile(oneTo(10));
    EXPECT_FALSE(ten.supported);
    EXPECT_DOUBLE_EQ(ten.value, 10.0);
    EXPECT_EQ(ten.beyond, 0);

    EXPECT_THROW(tailPercentile({}), std::invalid_argument);
}

TEST(TailPercentile, GroupedNeedsTenSourcesBeyond)
{
    // Requests 0..9 each give one gap of 1..10 ms; request 10 gives
    // twelve gaps of 50 ms (one slow stretch).
    std::vector<double> gaps;
    std::vector<int64_t> requests;
    for (int i = 0; i < 10; ++i) {
        gaps.push_back(double(i + 1));
        requests.push_back(i);
    }
    for (int i = 0; i < 12; ++i) {
        gaps.push_back(50.0);
        requests.push_back(10);
    }
    // Ungrouped, the slow stretch alone is "ten samples beyond".
    EXPECT_DOUBLE_EQ(tailPercentile(gaps).value, 50.0);
    // Grouped, the requests beyond the value must number ten: the
    // slow one plus requests 1..9 (gaps 2..10), leaving gap 1.
    const TailPercentile tail = groupedTailPercentile(gaps, requests);
    EXPECT_TRUE(tail.supported);
    EXPECT_DOUBLE_EQ(tail.value, 1.0);
    EXPECT_EQ(tail.beyond, 21);
    // Distinct groups reproduce the plain rule.
    std::vector<int64_t> distinct(gaps.size());
    for (size_t i = 0; i < distinct.size(); ++i)
        distinct[i] = int64_t(i);
    EXPECT_DOUBLE_EQ(groupedTailPercentile(gaps, distinct).value,
                     tailPercentile(gaps).value);
    // Fewer than ten sources: unsupported, the maximum is reported.
    const TailPercentile few = groupedTailPercentile(
        {1.0, 2.0, 3.0}, {0, 0, 1});
    EXPECT_FALSE(few.supported);
    EXPECT_DOUBLE_EQ(few.value, 3.0);
    EXPECT_THROW(groupedTailPercentile({1.0}, {}), std::invalid_argument);
}

TEST(Median, OddEvenAndEmpty)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(RequestLatency, TtftFromDueAndGapsBetweenTokens)
{
    const RequestLatency latency =
        requestLatency(10.0, {10.5, 10.6, 11.1, 11.15});
    EXPECT_DOUBLE_EQ(latency.ttft, 0.5);
    ASSERT_EQ(latency.gaps.size(), 3u);
    EXPECT_NEAR(latency.gaps[0], 0.1, 1e-12);
    EXPECT_NEAR(latency.gaps[1], 0.5, 1e-12);
    EXPECT_NEAR(latency.gaps[2], 0.05, 1e-12);
    EXPECT_NEAR(latency.maxGap, 0.5, 1e-12);

    const RequestLatency single = requestLatency(1.0, {1.25});
    EXPECT_DOUBLE_EQ(single.ttft, 0.25);
    EXPECT_TRUE(single.gaps.empty());
    EXPECT_DOUBLE_EQ(single.maxGap, 0.0);
    EXPECT_THROW(requestLatency(0.0, {}), std::invalid_argument);
}

TEST(EventRate, CountsBetweenFirstAndLastEventInTheWindow)
{
    // Events at 1, 2, 3 (weights 5, 7, 9) inside [0, 10); the one at
    // 12 is outside. Rate = (7 + 9) / (3 - 1).
    const double rate =
        eventRate({{3.0, 9.0}, {1.0, 5.0}, {2.0, 7.0}, {12.0, 100.0}},
                  0.0, 10.0);
    EXPECT_DOUBLE_EQ(rate, 8.0);
    // A single event falls back to weight over the window.
    EXPECT_DOUBLE_EQ(eventRate({{1.0, 5.0}}, 0.0, 10.0), 0.5);
    EXPECT_DOUBLE_EQ(eventRate({}, 0.0, 10.0), 0.0);
}

TEST(SelfTime, SubtractsTheUnionOfChildren)
{
    std::vector<Span> spans(4);
    spans[0] = {"root", 0.0, 10.0, -1, 0, 0};
    // Two overlapping children (parallel heads) cover [1, 6).
    spans[1] = {"a", 1.0, 5.0, 0, 0, 1};
    spans[2] = {"b", 2.0, 6.0, 0, 0, 2};
    // A grandchild never counts against the root.
    spans[3] = {"c", 2.0, 3.0, 1, 0, 1};
    const std::vector<double> self = selfSeconds(spans);
    EXPECT_DOUBLE_EQ(self[0], 5.0);
    EXPECT_DOUBLE_EQ(self[1], 3.0);
    EXPECT_DOUBLE_EQ(self[2], 4.0);
    EXPECT_DOUBLE_EQ(self[3], 1.0);
}

TEST(RequestPlan, SameSeedSameRequestsAndStratifiedMix)
{
    const WorkloadSpec &mixed = *findWorkload("mixed_arrivals");
    RequestPlan a(mixed, 7), b(mixed, 7), c(mixed, 8);
    int64_t longs = 0;
    bool differs = false;
    double last = -1.0;
    for (int i = 0; i < 100; ++i) {
        const PlannedRequest x = a.next(), y = b.next(), z = c.next();
        EXPECT_EQ(x.tokens, y.tokens);
        EXPECT_EQ(x.dueOffset, y.dueOffset);
        differs |= x.tokens != z.tokens;
        EXPECT_GT(x.dueOffset, last);
        last = x.dueOffset;
        longs += x.classIndex == 1 ? 1 : 0;
        if (i % 10 == 9) // one long prompt in every block of ten
            EXPECT_EQ(longs, (i + 1) / 10);
    }
    EXPECT_TRUE(differs);
    // 100 arrivals span ten block periods of 10 / rate seconds.
    EXPECT_LT(last, 100.0 / mixed.ratePerSecond);
}

TEST(Workloads, ChecksCoverEveryClass)
{
    for (const std::string &name : workloadNames()) {
        const WorkloadSpec &spec = *findWorkload(name);
        const auto picks = chooseChecked(spec, 3);
        ASSERT_EQ(picks.size(), spec.classes.size()) << name;
        for (const auto &p : picks)
            EXPECT_EQ(p.size(), 1u) << name;
    }
    EXPECT_EQ(findWorkload("nope"), nullptr);
}

} // namespace
} // namespace servebench
