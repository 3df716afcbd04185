// A deliberate hand-wired hook, carrying its justification annotation.
namespace odyssey {

void JustifiedHook(Viceroy* viceroy) {
  // ody-lint: allow(one-arm)
  viceroy->upcalls().set_delivery_observer({});
}

}  // namespace odyssey
