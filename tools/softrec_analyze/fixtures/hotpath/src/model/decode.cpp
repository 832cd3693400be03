#include <memory>

void
runDecodeStepInto(Ctx &ctx)
{
  auto ws = std::make_unique<Workspace>();
  // softrec-lint: allow(hot-path-alloc)
  auto once = std::make_unique<Workspace>();
  ctx.use(ws.get(), once.get());
}

void
attendRows(Ctx &ctx, Workspace &ws, const Caches &caches, int layer)
{
  ws.attend.resize(ctx.slots());
  ctx.use(caches[0]->kView(layer));
}

void
setupOnce(Ctx &ctx)
{
  auto ws = std::make_unique<Workspace>();
  ctx.use(ws.get());
}
