#include <vector>

void
runLayer(Ctx &ctx, Workspace &ws)
{
  std::vector<float> scratch(ws.rows());
  ctx.use(scratch.data());
}

Tensor
runEncoderLayer(Ctx &ctx, const Tensor &input)
{
  Workspace ws;
  ws.prepare(input.rows());
  runLayer(ctx, ws);
  return ws.x;
}
