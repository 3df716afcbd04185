// A deliberate hand-built stack, carrying its justification annotation.
namespace odyssey {

void JustifiedRig(Simulation* sim, Link* link) {
  // ody-lint: allow(one-rig)
  OdysseyClient client(sim, link, nullptr, kUpcallLatency);
}

}  // namespace odyssey
