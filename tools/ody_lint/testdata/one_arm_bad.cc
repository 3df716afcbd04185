// Oracle hooks wired by hand, every way the rule knows.
namespace odyssey {

void HandArmed(Simulation* sim, Viceroy* viceroy, OracleSet* oracle) {
  sim->set_step_observer([oracle](Time when) { oracle->OnStep(when); });
  sim->set_tie_observer([oracle](Time when, uint64_t prev_seq, uint64_t seq) {
    oracle->OnTieBreak(when, prev_seq, seq);
  });
  viceroy->upcalls().set_delivery_observer({});
  viceroy->set_window_observer(oracle);
  // The one way: the oracle set arms itself.
  oracle->Arm(/*clock=*/true);
  oracle->Finish();
}

}  // namespace odyssey
