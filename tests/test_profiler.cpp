/**
 * @file
 * Unit tests of the prof::Profiler / prof::Scope observability layer:
 * inert scopes when no profiler is attached, nested scope
 * aggregation, deterministic per-thread traffic merging under the
 * ThreadPool, BytesOnly semantics, and thread-slot bookkeeping. The
 * ParallelMergeIsDeterministic case doubles as the tsan workload for
 * the profiler (scripts/ci.sh runs this binary under
 * -fsanitize=thread).
 */

#include <cstdint>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

#include "common/exec_context.hpp"
#include "common/profiler.hpp"

namespace softrec {
namespace {

/** A context over a local pool with the given total concurrency. */
struct PooledContext
{
    explicit PooledContext(int threads) : pool(threads)
    {
        ctx.pool = &pool;
    }
    ThreadPool pool;
    ExecContext ctx;
};

TEST(Profiler, DetachedScopeIsInert)
{
    ExecContext ctx; // no profiler attached
    prof::Scope scope(ctx, "kernel.x");
    EXPECT_FALSE(scope.active());
    scope.addRead(1024);   // must be a no-op, not a crash
    scope.addWrite(2048);
}

TEST(Profiler, DetachedScopeRecordsNothing)
{
    prof::Profiler profiler;
    {
        ExecContext ctx; // profiler NOT attached
        prof::Scope scope(ctx, "kernel.x");
        scope.addRead(64);
    }
    EXPECT_TRUE(profiler.snapshot().empty());
    EXPECT_EQ(profiler.statsFor("kernel.x").calls, 0);
    EXPECT_EQ(profiler.statsFor("kernel.x").bytesRead, 0u);
}

TEST(Profiler, SerialScopeAggregates)
{
    prof::Profiler profiler;
    ExecContext ctx;
    ctx.profiler = &profiler;
    for (int i = 0; i < 3; ++i) {
        prof::Scope scope(ctx, "kernel.a");
        EXPECT_TRUE(scope.active());
        scope.addRead(100);
        scope.addWrite(10);
        scope.addFlops(1000);
    }
    const prof::ScopeStats stats = profiler.statsFor("kernel.a");
    EXPECT_EQ(stats.calls, 3);
    EXPECT_EQ(stats.bytesRead, 300u);
    EXPECT_EQ(stats.bytesWritten, 30u);
    EXPECT_EQ(stats.flops, 3000u);
    EXPECT_GE(stats.seconds, 0.0);
    EXPECT_EQ(stats.maxThreads, 1);
}

TEST(Profiler, NestedScopesAggregateIndependently)
{
    prof::Profiler profiler;
    ExecContext ctx;
    ctx.profiler = &profiler;
    {
        prof::Scope outer(ctx, "layer");
        outer.addRead(1000);
        {
            prof::Scope inner(ctx, "layer.gemm");
            inner.addWrite(500);
        }
        {
            prof::Scope inner(ctx, "layer.softmax");
            inner.addRead(200);
        }
    }
    const auto snapshot = profiler.snapshot();
    ASSERT_EQ(snapshot.size(), 3u);
    EXPECT_EQ(snapshot.at("layer").bytesRead, 1000u);
    EXPECT_EQ(snapshot.at("layer").calls, 1);
    EXPECT_EQ(snapshot.at("layer.gemm").bytesWritten, 500u);
    EXPECT_EQ(snapshot.at("layer.softmax").bytesRead, 200u);
}

TEST(Profiler, BytesOnlyScopeAddsNoTime)
{
    prof::Profiler profiler;
    ExecContext ctx;
    ctx.profiler = &profiler;
    {
        prof::Scope scope(ctx, "fused.ls",
                          prof::Scope::Kind::BytesOnly);
        scope.addWrite(4096);
    }
    const prof::ScopeStats stats = profiler.statsFor("fused.ls");
    EXPECT_EQ(stats.seconds, 0.0);
    EXPECT_EQ(stats.bytesWritten, 4096u);
    EXPECT_EQ(stats.calls, 1);
}

TEST(Profiler, ResetDropsEverything)
{
    prof::Profiler profiler;
    ExecContext ctx;
    ctx.profiler = &profiler;
    {
        prof::Scope scope(ctx, "kernel.a");
        scope.addRead(1);
    }
    EXPECT_EQ(profiler.snapshot().size(), 1u);
    profiler.reset();
    EXPECT_TRUE(profiler.snapshot().empty());
}

/**
 * The core race-freedom property: every chunk of a parallelFor
 * credits bytes from whichever thread runs it, and the merged total
 * must be exact — independent of scheduling — because each thread
 * owns a private padded slot. Run under tsan via scripts/ci.sh.
 */
TEST(Profiler, ParallelMergeIsDeterministic)
{
    constexpr int64_t kElems = 1 << 16;
    constexpr uint64_t kBytesPer = 4;
    for (int round = 0; round < 8; ++round) {
        prof::Profiler profiler;
        PooledContext p(4);
        p.ctx.profiler = &profiler;
        {
            prof::Scope scope(p.ctx, "kernel.parallel");
            parallelFor(p.ctx, 0, kElems, 256,
                        [&](int64_t begin, int64_t end) {
                            scope.addRead(uint64_t(end - begin) *
                                          kBytesPer);
                            scope.addWrite(uint64_t(end - begin));
                            scope.addFlops(2 * uint64_t(end - begin));
                        });
        }
        const prof::ScopeStats stats =
            profiler.statsFor("kernel.parallel");
        EXPECT_EQ(stats.bytesRead, uint64_t(kElems) * kBytesPer);
        EXPECT_EQ(stats.bytesWritten, uint64_t(kElems));
        EXPECT_EQ(stats.flops, 2 * uint64_t(kElems));
        EXPECT_EQ(stats.calls, 1);
        EXPECT_EQ(stats.maxThreads, 4);
    }
}

TEST(Profiler, ScopesOnWorkerThreadsMerge)
{
    // A scope created *inside* a worker chunk (as nested kernels do)
    // must also account correctly: nested contexts are serial, so the
    // scope sees threads() == 1, but its slot vector still spans the
    // process-wide high-water mark so addRead from the worker's slot
    // stays in bounds.
    prof::Profiler profiler;
    PooledContext p(4);
    p.ctx.profiler = &profiler;
    parallelFor(p.ctx, 0, 8, 1, [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
            ExecContext serial;
            serial.profiler = &profiler;
            prof::Scope scope(serial, "kernel.nested");
            scope.addRead(16);
        }
    });
    const prof::ScopeStats stats = profiler.statsFor("kernel.nested");
    EXPECT_EQ(stats.calls, 8);
    EXPECT_EQ(stats.bytesRead, 128u);
}

TEST(Profiler, MaxThreadsTracksWidestScope)
{
    prof::Profiler profiler;
    {
        ExecContext serial;
        serial.profiler = &profiler;
        prof::Scope scope(serial, "kernel.a");
    }
    {
        prof::Profiler ignored;
        PooledContext p(2);
        p.ctx.profiler = &profiler;
        prof::Scope scope(p.ctx, "kernel.a");
    }
    EXPECT_EQ(profiler.statsFor("kernel.a").maxThreads, 2);
}

TEST(ThreadSlots, ExternalThreadIsSlotZero)
{
    EXPECT_EQ(currentThreadSlot(), 0);
    EXPECT_GE(maxThreadSlots(), 1);
}

TEST(ThreadSlots, WorkersGetDistinctSlotsWithinBounds)
{
    PooledContext p(4);
    const int high_water = maxThreadSlots();
    EXPECT_GE(high_water, 4);
    std::vector<int> slot_hits(size_t(high_water), 0);
    std::mutex mutex;
    parallelFor(p.ctx, 0, 64, 1, [&](int64_t, int64_t) {
        const int slot = currentThreadSlot();
        ASSERT_GE(slot, 0);
        ASSERT_LT(slot, high_water);
        std::lock_guard<std::mutex> lock(mutex);
        slot_hits[size_t(slot)] += 1;
    });
    int total = 0;
    for (int hits : slot_hits)
        total += hits;
    EXPECT_EQ(total, 64);
}

} // namespace
} // namespace softrec
