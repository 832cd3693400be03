/**
 * @file
 * Serving-scenario ablation: autoregressive generation with GPT-Neo
 * (long prompt prefill + KV-cache decode). Quantifies where softmax
 * recomposition pays in a generation workload: the prefill phase is
 * exactly the paper's evaluated forward pass, while each decode step
 * has a single 1 x C attention row per head and is bound by weight
 * and KV-cache streaming instead.
 */

#include <cstdio>

#include "bench_common.hpp"
#include "model/generation.hpp"

using namespace softrec;
using namespace softrec::bench;

int
main()
{
    const GpuSpec spec = GpuSpec::a100();
    const ModelConfig model = ModelConfig::gptNeo13B();

    std::printf("Generation ablation: %s on %s (prefill + KV-cache "
                "decode, batch 1)\n\n",
                model.name.c_str(), spec.name.c_str());

    TextTable table("");
    table.setHeader({"prompt", "new tokens", "prefill (base)",
                     "prefill (SDF)", "decode", "ms/token",
                     "request speedup"});
    struct Case
    {
        int64_t prompt;
        int64_t tokens;
    };
    for (const Case &c : {Case{4096, 32}, Case{4096, 256},
                          Case{2048, 32}, Case{1024, 256}}) {
        DecodeRun run;
        run.promptLen = c.prompt;
        run.generateTokens = c.tokens;
        run.prefillStrategy = Strategy::Baseline;
        const DecodeResult base = runGeneration(spec, model, run);
        run.prefillStrategy = Strategy::Fused;
        const DecodeResult sdf = runGeneration(spec, model, run);
        table.addRow({
            strprintf("%lld", (long long)c.prompt),
            strprintf("%lld", (long long)c.tokens),
            formatSeconds(base.prefillSeconds),
            formatSeconds(sdf.prefillSeconds),
            formatSeconds(base.decodeSeconds),
            strprintf("%.2f",
                      base.secondsPerToken(c.tokens) * 1e3),
            ratio(base.totalSeconds() / sdf.totalSeconds()),
        });
    }
    table.print();

    std::printf(
        "\nReading: recomposition accelerates the prefill (the "
        "paper's workload) but not the per-token decode, whose "
        "attention is one row per head; request-level speedup "
        "therefore tracks the prefill's share of the request. "
        "Long-prompt, short-output requests - summarization, "
        "question answering over documents - see nearly the full "
        "Fig. 8 benefit.\n");
    return 0;
}
