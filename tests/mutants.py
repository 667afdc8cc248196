"""Known mutants of `src/roomflow` and the tests that kill them.

Each entry is (file under src/roomflow, exact old text, new text, the
tests that must fail once the old text is replaced by the new). A mutant
whose test tuple is empty is equivalent: no input tells it apart from the
program, and its note says why. Each old text occurs exactly once in its
file (`test_mutants.py` checks it), so a refactor that rewrites one must
port its mutant here, as a deleted test is ported.

`python tests/run_mutants.py` checks every mutant: it applies each to its
own copy of the tree and runs its tests there with a fresh hypothesis
database. An equivalent mutant runs the tests of the other mutants of its
file instead, and must survive them.
"""

BATCH_SURVIVORS = "tests/test_properties.py::TestBatchSurvivors::" \
    "test_policies_together_equal_each_alone"
ENGINE_LOSSES = "tests/test_properties.py::TestArrayEngineMatchesReference::" \
    "test_policy_hybrid_and_benchmark_losses"
FINGERPRINTS = "tests/test_acceptance.py::TestPresetFingerprints"
SAMPLING = "tests/test_properties.py::TestArrayEngineMatchesReference::" \
    "test_sampling_is_bit_identical_to_scalar_draws"
RATE_MASS = "tests/test_properties.py::TestRateMass::" \
    "test_mass_after_is_the_two_sided_mass_to_the_end"
COMMAND_LINES = "tests/test_cli.py::TestBenchmarkCommandLines::" \
    "test_workload_command_lines_parse"

MUTANTS = [
    # accept while alive < cap rather than alive + 1 <= cap: caps rounded
    # up, which differs from the rule for a fractional heuristic cap
    ("engine.py", "cap[rows, p] = np.minimum(np.floor(stage1_caps(",
     "cap[rows, p] = np.minimum(np.ceil(stage1_caps(",
     (BATCH_SURVIVORS,)),
    ("engine.py", "cap[rows, p] = np.minimum(np.floor(stage1_caps(",
     "cap[rows, p] = np.minimum(np.round(stage1_caps(",
     (BATCH_SURVIVORS, ENGINE_LOSSES, FINGERPRINTS)),
    # equivalent: the int32 store truncates toward zero, which floors every
    # cap a Stage-I rule gives (TestBatchSurvivors::
    # test_no_cap_is_a_fraction_below_zero holds that premise)
    ("engine.py", "cap[rows, p] = np.minimum(np.floor(stage1_caps(\n"
     "            policy, batch.keep, m, scenario.profiles, scenario.C)), m)",
     "cap[rows, p] = np.minimum(stage1_caps(\n"
     "            policy, batch.keep, m, scenario.profiles, scenario.C), m)",
     ()),
    # every policy replays the last policy's caps: one accepted set shared
    ("engine.py", "cap[rows, p] = np.minimum(",
     "cap[rows, :] = np.minimum(", (BATCH_SURVIVORS,)),
    # a cancel's slot not raised to the request's own position + 1
    ("engine.py", "- c + local[c], local[c] + 1)", "- c + local[c], 0)",
     (BATCH_SURVIVORS,)),
    # a cancel after its day's last request released at the last step
    ("engine.py", "- c + local[c], local[c] + 1)",
     "- c + local[c], local[c] + 1).clip(max=m[c] - 1)",
     (BATCH_SURVIVORS, ENGINE_LOSSES, FINGERPRINTS)),
    # survivors released at the batch's largest day rather than their own
    # day's size. Equivalent: a lane is one day, and from its size on its
    # caps are padding, which accepts nothing, so no release at or after
    # the size can change a decision
    ("engine.py", "slot = m  # the caps are set",
     "slot = np.full_like(m, M)  # the caps are set", ()),
    # a day's cancel uniforms ranked among all its cancelling requests,
    # not among those with p > 0
    ("flows.py", "first + np.arange(len(live)) - live.searchsorted(first)",
     "first + gone.searchsorted(live) - gone.searchsorted(first)",
     (SAMPLING,)),
    # a flat rate's tail mass with the product regrouped: equal in exact
    # arithmetic, not in floats
    ("flows.py", "mass = self.mass - z * self.mass",
     "mass = self.mass - (lo - self.t0) * (self.mass / (self.t1 - self.t0))",
     (RATE_MASS,)),
    # a flat rate's times read from the unread row of its draws
    ("flows.py", "raw = raw[1]", "raw = raw[0]", (SAMPLING, FINGERPRINTS)),
    # the upper tail by betaincc: equal in exact arithmetic, not in floats
    ("flows.py", "from scipy.special import betainc\n"
     "            mass = self.mass * (1.0 - betainc(self.a, self.b, z))",
     "from scipy.special import betaincc\n"
     "            mass = self.mass * betaincc(self.a, self.b, z)",
     (RATE_MASS,)),
    # `fit` without --jobs, which the fit-bookings workload passes
    ("cli.py", '            p.add_argument("--jobs", type=int, default=1)',
     '            if name != "fit":\n'
     '                p.add_argument("--jobs", type=int, default=1)',
     (COMMAND_LINES,)),
]
