#include <memory>

void
runDecodeStepInto(Ctx &ctx)
{
  auto ws = std::make_unique<Workspace>();
  // softrec-lint: allow(hot-path-alloc)
  auto once = std::make_unique<Workspace>();
  ctx.use(ws.get(), once.get());
}

template <typename RowViews>
void
attendRows(Ctx &ctx, Workspace &ws, const RowViews &views)
{
  ws.attend.resize(ctx.slots());
  ctx.use(views(0));
}

void
setupOnce(Ctx &ctx)
{
  auto ws = std::make_unique<Workspace>();
  ctx.use(ws.get());
}
