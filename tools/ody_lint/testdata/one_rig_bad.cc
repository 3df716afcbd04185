// A hand-built single-client stack, every way the rule knows.
namespace odyssey {

void HandBuiltRig(Simulation* sim, Link* link, Modulator* modulator) {
  StrategyContext context;
  context.sim = sim;
  context.modulator = modulator;
  auto strategy = StrategyRegistry::Builtin().Create("odyssey", std::move(context));
  OdysseyClient client(sim, link, std::move(strategy), kUpcallLatency);
  auto heap = std::make_unique<OdysseyClient>(sim, link, nullptr);
  Viceroy viceroy(sim, nullptr, kUpcallLatency);
  Viceroy* raw = new Viceroy(sim, nullptr, 0);
  // Borrowing the rig's stack is fine.
  OdysseyClient& borrowed = *heap;
  Viceroy* viceroy_ptr = &borrowed.viceroy();
}

}  // namespace odyssey
