#!/usr/bin/env python3
"""Self-tests for ody_lint: each rule has a positive fixture (violations
found) and a suppressed fixture (annotations silence them).

Fixtures live in testdata/ and are copied into a scratch tree at the paths
where their rules apply (library rules only fire under src/), then linted
through the real CLI entry point.
"""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ody_lint  # noqa: E402

TESTDATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "testdata")


class OdyLintTest(unittest.TestCase):
    def setUp(self):
        self.root = tempfile.mkdtemp(prefix="ody_lint_test_")
        self.addCleanup(shutil.rmtree, self.root)

    def place(self, fixture, relpath):
        dest = os.path.join(self.root, relpath)
        os.makedirs(os.path.dirname(dest), exist_ok=True)
        shutil.copyfile(os.path.join(TESTDATA, fixture), dest)
        return relpath

    def lint(self, relpath):
        return ody_lint.lint_file(self.root, relpath)

    def rules_found(self, relpath):
        return sorted({v.rule for v in self.lint(relpath)})

    # --- wall-clock ---

    def test_wall_clock_flagged_in_simulated_dirs(self):
        rel = self.place("wall_clock_bad.cc", "src/sim/wall_clock_bad.cc")
        violations = [v for v in self.lint(rel) if v.rule == "wall-clock"]
        self.assertEqual(len(violations), 2)
        self.assertEqual([v.line for v in violations], [7, 8])

    def test_wall_clock_allowed_outside_simulated_dirs(self):
        rel = self.place("wall_clock_bad.cc", "src/metrics/wall_clock_bad.cc")
        self.assertNotIn("wall-clock", self.rules_found(rel))

    def test_wall_clock_suppressed(self):
        rel = self.place("wall_clock_suppressed.cc", "src/sim/wall_clock_suppressed.cc")
        self.assertNotIn("wall-clock", self.rules_found(rel))

    # --- unseeded-random ---

    def test_unseeded_random_flagged(self):
        rel = self.place("unseeded_random_bad.cc", "src/core/unseeded_random_bad.cc")
        violations = [v for v in self.lint(rel) if v.rule == "unseeded-random"]
        self.assertEqual(len(violations), 3)

    def test_unseeded_random_file_suppression(self):
        rel = self.place("unseeded_random_suppressed.cc",
                         "src/core/unseeded_random_suppressed.cc")
        self.assertNotIn("unseeded-random", self.rules_found(rel))

    def test_random_home_is_exempt(self):
        rel = self.place("unseeded_random_bad.cc", "src/sim/random.h")
        self.assertNotIn("unseeded-random", self.rules_found(rel))

    def test_mobility_random_strictness_flagged(self):
        rel = self.place("mobility_random_bad.cc", "src/mobility/mobility_random_bad.cc")
        violations = [v for v in self.lint(rel) if v.rule == "unseeded-random"]
        # The distribution, the literal-seeded Rng, and the literal-seeded
        # SplitMix64 each fire; the seed-derived Good() shape stays clean.
        self.assertEqual([v.line for v in violations], [11, 12, 13])

    def test_mobility_random_strictness_scoped_to_mobility(self):
        # The same file placed elsewhere in src/ only obeys the tree-wide
        # rule, which none of these patterns trip.
        rel = self.place("mobility_random_bad.cc", "src/core/mobility_random_bad.cc")
        self.assertNotIn("unseeded-random", self.rules_found(rel))

    def test_mobility_random_strictness_suppressed(self):
        rel = self.place("mobility_random_suppressed.cc",
                        "src/mobility/mobility_random_suppressed.cc")
        self.assertNotIn("unseeded-random", self.rules_found(rel))

    # --- float-equal ---

    def test_float_equal_flagged(self):
        rel = self.place("float_equal_bad.cc", "src/estimator/float_equal_bad.cc")
        violations = [v for v in self.lint(rel) if v.rule == "float-equal"]
        self.assertEqual([v.line for v in violations], [6, 9])

    def test_float_equal_suppressed(self):
        rel = self.place("float_equal_suppressed.cc",
                         "src/estimator/float_equal_suppressed.cc")
        self.assertNotIn("float-equal", self.rules_found(rel))

    def test_float_equal_not_applied_to_tests(self):
        rel = self.place("float_equal_bad.cc", "tests/float_equal_bad.cc")
        self.assertNotIn("float-equal", self.rules_found(rel))

    # --- no-cout ---

    def test_no_cout_flagged_in_library(self):
        rel = self.place("no_cout_bad.cc", "src/core/no_cout_bad.cc")
        violations = [v for v in self.lint(rel) if v.rule == "no-cout"]
        self.assertEqual(len(violations), 2)

    def test_no_cout_allowed_in_examples(self):
        rel = self.place("no_cout_bad.cc", "examples/no_cout_bad.cc")
        self.assertNotIn("no-cout", self.rules_found(rel))

    def test_no_cout_suppressed(self):
        rel = self.place("no_cout_suppressed.cc", "src/core/no_cout_suppressed.cc")
        self.assertNotIn("no-cout", self.rules_found(rel))

    # --- trace-static-name ---

    def test_trace_name_flagged_everywhere(self):
        rel = self.place("trace_name_bad.cc", "src/core/trace_name_bad.cc")
        violations = [v for v in self.lint(rel) if v.rule == "trace-static-name"]
        self.assertEqual([v.line for v in violations], [7, 8, 9])
        rel = self.place("trace_name_bad.cc", "examples/trace_name_bad.cc")
        self.assertIn("trace-static-name", self.rules_found(rel))

    def test_trace_name_literal_across_lines_is_clean(self):
        rel = self.place("trace_name_bad.cc", "src/core/trace_name_bad.cc")
        violations = [v for v in self.lint(rel) if v.rule == "trace-static-name"]
        self.assertNotIn(14, [v.line for v in violations])  # "rpc_call" literal
        self.assertNotIn(15, [v.line for v in violations])  # literal on next line

    def test_trace_name_suppressed(self):
        rel = self.place("trace_name_suppressed.cc", "src/core/trace_name_suppressed.cc")
        self.assertNotIn("trace-static-name", self.rules_found(rel))

    def test_trace_name_skips_macro_definitions(self):
        dest = os.path.join(self.root, "src/trace/trace_macros.h")
        os.makedirs(os.path.dirname(dest), exist_ok=True)
        with open(dest, "w", encoding="utf-8") as f:
            f.write("#ifndef SRC_TRACE_TRACE_MACROS_H_\n"
                    "#define SRC_TRACE_TRACE_MACROS_H_\n"
                    "#define ODY_TRACE_INSTANT(rec, cat, name, ts, id) \\\n"
                    "  ODY_TRACE_EVENT_(rec, cat, kInstant, name, ts, id)\n"
                    "#endif  // SRC_TRACE_TRACE_MACROS_H_\n")
        self.assertNotIn("trace-static-name",
                         self.rules_found("src/trace/trace_macros.h"))

    # --- harness-no-raw-thread ---

    def test_raw_thread_flagged_in_library(self):
        rel = self.place("harness_thread_bad.cc", "src/core/harness_thread_bad.cc")
        violations = [v for v in self.lint(rel) if v.rule == "harness-no-raw-thread"]
        # std::thread, .detach(), and std::jthread each fire.
        self.assertEqual([v.line for v in violations], [7, 8, 9])

    def test_worker_pool_may_use_threads_but_never_detach(self):
        rel = self.place("harness_thread_bad.cc", "src/harness/worker_pool.cc")
        violations = [v for v in self.lint(rel) if v.rule == "harness-no-raw-thread"]
        self.assertEqual([v.line for v in violations], [8])  # only the detach
        self.assertIn("detach", violations[0].message)

    def test_raw_thread_allowed_outside_library_except_detach(self):
        rel = self.place("harness_thread_bad.cc", "tests/harness_thread_bad.cc")
        violations = [v for v in self.lint(rel) if v.rule == "harness-no-raw-thread"]
        self.assertEqual([v.line for v in violations], [8])  # only the detach

    def test_raw_thread_suppressed(self):
        rel = self.place("harness_thread_suppressed.cc",
                         "src/core/harness_thread_suppressed.cc")
        self.assertNotIn("harness-no-raw-thread", self.rules_found(rel))

    # --- harness-no-global-state ---

    def test_global_state_flagged_in_harness(self):
        rel = self.place("harness_state_bad.cc", "src/harness/harness_state_bad.cc")
        violations = [v for v in self.lint(rel) if v.rule == "harness-no-global-state"]
        # The global counter, the function-local static, and the mutable
        # member fire; static const / static constexpr stay clean.
        self.assertEqual([v.line for v in violations], [4, 9, 14])

    def test_global_state_allowed_outside_harness(self):
        rel = self.place("harness_state_bad.cc", "src/core/harness_state_bad.cc")
        self.assertNotIn("harness-no-global-state", self.rules_found(rel))

    def test_global_state_suppressed(self):
        rel = self.place("harness_state_suppressed.cc",
                         "src/harness/harness_state_suppressed.cc")
        self.assertNotIn("harness-no-global-state", self.rules_found(rel))

    # --- test-no-wallclock ---

    def test_wallclock_in_tests_flagged(self):
        rel = self.place("test_wallclock_bad.cc", "tests/test_wallclock_bad.cc")
        violations = [v for v in self.lint(rel) if v.rule == "test-no-wallclock"]
        # steady_clock, sleep_for, system_clock each fire once.
        self.assertEqual([v.line for v in violations], [8, 9, 10])

    def test_wallclock_rule_scoped_to_tests(self):
        # src/ has its own wall-clock rule (scoped to the simulated dirs);
        # examples may legitimately time themselves.
        for tree in ("src/metrics", "examples"):
            rel = self.place("test_wallclock_bad.cc", tree + "/test_wallclock_bad.cc")
            self.assertNotIn("test-no-wallclock", self.rules_found(rel))

    def test_wallclock_in_tests_suppressed(self):
        rel = self.place("test_wallclock_suppressed.cc",
                         "tests/test_wallclock_suppressed.cc")
        self.assertNotIn("test-no-wallclock", self.rules_found(rel))

    # --- fleet-pod-message ---

    def test_fleet_pod_message_flagged(self):
        rel = self.place("fleet_message_bad.cc", "src/fleet/fleet_message_bad.cc")
        violations = [v for v in self.lint(rel) if v.rule == "fleet-pod-message"]
        # The missing static_assert (reported at the struct), the non-POD
        # member, the raw pointer, the wall-clock read, and the
        # literal-seeded stream each fire once.
        self.assertEqual(sorted(v.line for v in violations), [9, 10, 11, 16, 17])
        messages = " ".join(v.message for v in violations)
        self.assertIn("static_assert", messages)
        self.assertIn("non-POD", messages)
        self.assertIn("raw pointer", messages)

    def test_fleet_pod_message_scoped_to_fleet(self):
        rel = self.place("fleet_message_bad.cc", "src/core/fleet_message_bad.cc")
        self.assertNotIn("fleet-pod-message", self.rules_found(rel))

    def test_fleet_pod_message_suppressed(self):
        rel = self.place("fleet_message_suppressed.cc",
                         "src/fleet/fleet_message_suppressed.cc")
        self.assertNotIn("fleet-pod-message", self.rules_found(rel))

    # --- strategy-isolation ---

    def test_strategy_isolation_flagged(self):
        rel = self.place("strategy_isolation_bad.cc",
                         "src/strategies/strategy_isolation_bad.cc")
        violations = [v for v in self.lint(rel) if v.rule == "strategy-isolation"]
        # The two internal includes, the wall-clock read, and the two
        # observation writes each fire once.
        self.assertEqual(sorted(v.line for v in violations), [2, 3, 8, 9, 10])
        messages = " ".join(v.message for v in violations)
        self.assertIn("estimator's", messages)
        self.assertIn("wall-clock", messages)
        self.assertIn("RecordThroughput", messages)

    def test_strategy_isolation_scoped_to_strategies(self):
        rel = self.place("strategy_isolation_bad.cc",
                         "src/core/strategy_isolation_bad.cc")
        self.assertNotIn("strategy-isolation", self.rules_found(rel))

    def test_strategy_isolation_suppressed(self):
        rel = self.place("strategy_isolation_suppressed.cc",
                         "src/strategies/strategy_isolation_suppressed.cc")
        self.assertNotIn("strategy-isolation", self.rules_found(rel))

    # --- one-rig ---

    def test_one_rig_flagged(self):
        rel = self.place("one_rig_bad.cc", "src/check/one_rig_bad.cc")
        violations = [v for v in self.lint(rel) if v.rule == "one-rig"]
        # The registry call, both client constructions and both viceroy
        # constructions; borrowing references and pointers stays clean.
        self.assertEqual([v.line for v in violations], [8, 9, 10, 11, 12])
        messages = " ".join(v.message for v in violations)
        self.assertIn("RigSpec::strategy", messages)
        self.assertIn("OdysseyClient constructed", messages)
        self.assertIn("Viceroy constructed", messages)

    def test_one_rig_allowed_in_rig_builders(self):
        for home in ("src/metrics/experiment.cc", "src/fleet/fleet_node.cc"):
            rel = self.place("one_rig_bad.cc", home)
            self.assertNotIn("one-rig", self.rules_found(rel))
        rel = self.place("one_rig_bad.cc", "tests/one_rig_bad.cc")
        self.assertNotIn("one-rig", self.rules_found(rel))

    def test_one_rig_suppressed(self):
        rel = self.place("one_rig_suppressed.cc", "src/check/one_rig_suppressed.cc")
        self.assertNotIn("one-rig", self.rules_found(rel))

    # --- one-arm ---

    def test_one_arm_flagged(self):
        for home in ("src/check/one_arm_bad.cc", "examples/one_arm_bad.cc"):
            rel = self.place("one_arm_bad.cc", home)
            violations = [v for v in self.lint(rel) if v.rule == "one-arm"]
            # The step, tie, delivery and window setters; Arm() and Finish()
            # stay clean.
            self.assertEqual([v.line for v in violations], [5, 6, 9, 10])
            messages = " ".join(v.message for v in violations)
            self.assertIn("set_step_observer", messages)
            self.assertIn("set_tie_observer", messages)
            self.assertIn("set_delivery_observer", messages)
            self.assertIn("set_window_observer", messages)

    def test_one_arm_allowed_in_oracles_and_setter_homes(self):
        for home in ("src/check/oracles.cc", "src/sim/simulation.h", "src/sim/event_queue.h",
                     "src/core/upcall.h", "src/core/viceroy.h", "tests/one_arm_bad.cc"):
            rel = self.place("one_arm_bad.cc", home)
            self.assertNotIn("one-arm", self.rules_found(rel))

    def test_one_arm_suppressed(self):
        rel = self.place("one_arm_suppressed.cc", "src/check/one_arm_suppressed.cc")
        self.assertNotIn("one-arm", self.rules_found(rel))

    # --- header-guard ---

    def test_header_guard_mismatch_flagged(self):
        rel = self.place("header_guard_bad.h", "src/core/header_guard_bad.h")
        violations = [v for v in self.lint(rel) if v.rule == "header-guard"]
        self.assertEqual(len(violations), 1)
        self.assertIn("SRC_CORE_HEADER_GUARD_BAD_H_", violations[0].message)

    def test_header_guard_correct_is_clean(self):
        dest = os.path.join(self.root, "src/core/good.h")
        os.makedirs(os.path.dirname(dest), exist_ok=True)
        with open(dest, "w", encoding="utf-8") as f:
            f.write("#ifndef SRC_CORE_GOOD_H_\n#define SRC_CORE_GOOD_H_\n"
                    "#endif  // SRC_CORE_GOOD_H_\n")
        self.assertNotIn("header-guard", self.rules_found("src/core/good.h"))

    # --- include-order ---

    def test_include_order_flagged(self):
        rel = self.place("include_order_bad.cc", "src/core/include_order_bad.cc")
        violations = [v for v in self.lint(rel) if v.rule == "include-order"]
        messages = " ".join(v.message for v in violations)
        self.assertIn("not root-relative", messages)
        self.assertIn("sorted order", messages)

    def test_include_order_suppressed(self):
        rel = self.place("include_order_suppressed.cc",
                         "src/core/include_order_suppressed.cc")
        self.assertNotIn("include-order", self.rules_found(rel))

    def test_own_header_must_come_first(self):
        dest = os.path.join(self.root, "src/core/thing.cc")
        os.makedirs(os.path.dirname(dest), exist_ok=True)
        with open(dest, "w", encoding="utf-8") as f:
            f.write('#include "src/core/status.h"\n#include "src/core/thing.h"\n')
        violations = [v for v in self.lint("src/core/thing.cc")
                      if v.rule == "include-order"]
        self.assertTrue(any("own header" in v.message for v in violations))

    # --- escape-capture ---

    def test_escape_capture_flags_both_historical_bug_shapes(self):
        rel = self.place("escape_capture_bad.cc", "src/core/escape_capture_bad.cc")
        violations = [v for v in self.lint(rel) if v.rule == "escape-capture"]
        # Lines 28/29: the bench dangling-stack-capture shape (Schedule/Post
        # over a dead frame).  Line 36: the client teardown use-after-free
        # shape (observer wired to stack state).  Line 44: the member-
        # assignment form.  [this] and by-value captures stay clean.
        self.assertEqual([v.line for v in violations], [28, 29, 36, 44])

    def test_escape_capture_owned_capture_annotations(self):
        rel = self.place("escape_capture_suppressed.cc",
                         "src/core/escape_capture_suppressed.cc")
        self.assertNotIn("escape-capture", self.rules_found(rel))

    def test_escape_capture_scoped_out_of_tests(self):
        rel = self.place("escape_capture_bad.cc", "tests/escape_capture_bad.cc")
        self.assertNotIn("escape-capture", self.rules_found(rel))

    def test_escape_capture_sees_event_queue_callback_sinks(self):
        rel = self.place("escape_capture_event_callback.cc",
                         "src/core/escape_capture_event_callback.cc")
        violations = [v for v in ody_lint.lint_file(self.root, rel)
                      if v.rule == "escape-capture"]
        self.assertEqual([v.line for v in violations], [20])

    def test_escape_capture_cross_file_context(self):
        self.place("escape_capture_sinks.h", "src/core/escape_capture_sinks.h")
        rel = self.place("escape_capture_cross.cc", "src/core/escape_capture_cross.cc")
        # Without the cross-file context the sinks are invisible and the
        # file lints clean; with it, both storing sinks fire and the
        # inline-invoking function stays clean.
        self.assertNotIn("escape-capture", self.rules_found(rel))
        context = ody_lint.build_context(self.root, ody_lint.collect_files(self.root, []))
        self.assertIn("WatchLevel", context.sink_names)
        self.assertIn("Debouncer", context.sink_names)
        self.assertNotIn("ApplyNow", context.sink_names)
        violations = [v for v in ody_lint.lint_file(self.root, rel, context)
                      if v.rule == "escape-capture"]
        self.assertEqual([v.line for v in violations], [10, 15])

    def test_escape_capture_cli_uses_cross_file_context(self):
        self.place("escape_capture_sinks.h", "src/core/escape_capture_sinks.h")
        self.place("escape_capture_cross.cc", "src/core/escape_capture_cross.cc")
        self.assertEqual(ody_lint.main(["--root", self.root]), 1)

    # --- CLI driver ---

    def test_cli_exit_codes_and_scan(self):
        self.place("wall_clock_bad.cc", "src/sim/wall_clock_bad.cc")
        self.assertEqual(ody_lint.main(["--root", self.root]), 1)
        shutil.rmtree(os.path.join(self.root, "src"))
        self.place("no_cout_bad.cc", "examples/no_cout_bad.cc")  # out of scope: clean
        self.assertEqual(ody_lint.main(["--root", self.root]), 0)
        self.assertEqual(ody_lint.main(["--root", os.path.join(self.root, "absent")]), 2)

    def test_list_rules_covers_all_checks(self):
        self.assertEqual(ody_lint.main(["--list-rules"]), 0)
        self.assertEqual(len(ody_lint.RULES), 15)


if __name__ == "__main__":
    unittest.main()
