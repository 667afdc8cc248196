"""Known mutants of `src/roomflow` and the tests that kill them.

Each entry is (file under src/roomflow, exact old text, new text, the
tests that must fail once the old text is replaced by the new). A mutant
whose test tuple is empty is equivalent: no input tells it apart from the
program, and its note says why. Each old text occurs exactly once in its
file, and each killing test id names a test that exists (`test_mutants.py`
checks both), so a refactor that rewrites one must port its mutant here,
as a deleted test is ported.

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
LAZY_IMPORTS = "tests/test_cli.py::TestLazyImports"
COLUMNAR_PATH = "tests/test_calibration.py::TestColumnarPath"
DIALECT = "tests/test_calibration.py::TestIngestion::test_dialect"
INGEST_REFERENCE = "tests/test_calibration.py::" \
    "TestColumnarIngestMatchesReference::test_equals_reference"
BATCHED_EM = "tests/test_calibration.py::TestBatchedEMMatchesReference::" \
    "test_equals_restarts_one_after_another"
FIT_BYTES = "tests/test_cli.py::TestFit::test_output_bytes_pinned"
LOGSUMEXP = "tests/test_calibration.py::TestLogsumexp"
CANCEL_UNIFORMS = "tests/test_flows.py::TestCancelUniforms::" \
    "test_only_requests_with_p_above_0_take_one"
HARD_CAP = "tests/test_policies.py::TestDass1Decide::test_p_one_hard_cap"
BOOKING_CAPS = "tests/test_properties.py::TestArrayEngineMatchesReference::" \
    "test_booking_caps_match_scalar_closed_form"
UNDERFLOW = "tests/test_policies.py::TestMaxBookingsWithin::" \
    "test_underflowing_estimate_returns_promptly"

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
     (CANCEL_UNIFORMS,)),
    # a flat rate's tail mass with the product regrouped: equal in exact
    # arithmetic, not in floats
    ("flows.py", "mass = self.mass - z * self.mass",
     "mass = self.mass - lo * (self.mass / self.t1)", (RATE_MASS,)),
    # the keep curve's slope as a product with 1 / k0, not np.interp's
    # quotient: equal for k0 a power of two, not for k0 = 3
    ("flows.py", "(1.0 - self.p0) / self.k0 * t",
     "(1.0 - self.p0) * (1.0 / self.k0) * t", (SAMPLING,)),
    # the inverse of the keep curve regrouped: equal in exact arithmetic,
    # not in floats for k0 = 3
    ("flows.py", "(y - self.p0) / (1.0 - self.p0) * self.k0",
     "(y - self.p0) * self.k0 / (1.0 - self.p0)", (SAMPLING,)),
    # a flat rate's times read from the unread row of its draws
    ("flows.py", "raw = raw[1]", "raw = raw[0]", (SAMPLING, FINGERPRINTS)),
    # the upper tail as 1 minus the lower binomial sum: equal in exact
    # arithmetic, but it cancels where the tail is small
    ("flows.py", "        for _ in range(int(self.b)):\n"
     "            tail *= w\n"
     "        return tail\n",
     "        n = int(self.a + self.b) - 1\n"
     "        return 1.0 - sum(math.comb(n, j) * z ** j * w ** (n - j)\n"
     "                         for j in range(len(rest) + 1, n + 1))\n",
     (RATE_MASS,)),
    # scipy imported with the module again, by every command
    ("flows.py", "import numpy as np\n",
     "import numpy as np\nimport scipy.special  # noqa: F401\n",
     (LAZY_IMPORTS,)),
    # a cancellation on the arrival day's lead refused by the columnar
    # rule mask: every clean file with one goes to the per-row path
    ("calibration.py", "(values <= lead)", "(values < lead)",
     (COLUMNAR_PATH,)),
    # \r\n line ends left in the block: a CRLF blank line is then one
    # field, not a blank line
    ("calibration.py", '        block = block.replace(b"\\r\\n", b"\\n")\n',
     "", (f"{COLUMNAR_PATH}::test_file_end",)),
    # a header line holding a bare CR read as the header: in a file of
    # bare-CR line ends it swallows every record
    ("calibration.py", """any(c in header for c in '"\\0\\r')""",
     """any(c in header for c in '"\\0')""", (INGEST_REFERENCE,)),
    # blank lines kept as one-field records: a clean file with one goes to
    # the per-row path
    ("calibration.py", "    if blank.any():\n"
     "        start, end, at_eol = "
     "start[~blank], end[~blank], at_eol[~blank]\n",
     "", (f"{COLUMNAR_PATH}::test_file_end",)),
    # any byte of 1 to 18 read as a digit: padded, signed or underscored
    # integers convert to wrong values instead of by int's grammar
    ("calibration.py", "    if np.any(digit > 9):\n        return None\n", "",
     (DIALECT,)),
    # the EM restarts that stopped improving kept in the iteration, so they
    # run on past a lone run's stop
    ("calibration.py", "        active = active[go]\n"
     "        if not len(active):\n"
     "            break\n"
     "        resp = np.exp(comp[:, go] - lse[go])\n",
     "        if not go.any():\n"
     "            break\n"
     "        resp = np.exp(comp - lse)\n",
     (BATCHED_EM,)),
    # each component's mass summed over days pairwise, not one day after
    # another as a lone run sums it
    ("calibration.py", "nk = np.cumsum(resp, axis=-1)[..., -1].T",
     "nk = resp.sum(axis=-1).T", (BATCHED_EM, FIT_BYTES)),
    # the logsumexp terms summed one after another from 8 components on,
    # where numpy's last-axis sum keeps 8 partial sums
    ("calibration.py", "else np.moveaxis(e, 0, -1).copy().sum(axis=-1))",
     "else e.sum(axis=0))", (LOGSUMEXP, BATCHED_EM)),
    # the flags read unstripped by the per-row reader: a padded 0 or 1 is
    # then rejected
    ("calibration.py",
     "        canceled, walkin = canceled.strip(), walkin.strip()\n", "",
     (DIALECT,)),
    # a flag's first byte read whatever its length: 01 reads as 0 on the
    # columnar path, where the per-row reader rejects it
    ("calibration.py", "(end - start == 1) & (", "(", (DIALECT,)),
    # scipy imported with calibration again, by every command
    ("calibration.py", "import numpy as np\n",
     "import numpy as np\nimport scipy.special  # noqa: F401\n",
     (LAZY_IMPORTS,)),
    # every EM restart started from restart 0's start point
    ("calibration.py", "streams(seed, ((r,) for r in range(n_restarts)))",
     "streams(seed, ((0,) for r in range(n_restarts)))",
     (BATCHED_EM, FIT_BYTES)),
    # the process pool imported with the command again, by every run
    ("cli.py", "import numpy as np\n",
     "import numpy as np\n"
     "from concurrent.futures import ProcessPoolExecutor  # noqa: F401\n",
     (LAZY_IMPORTS,)),
    # numpy.random imported with flows again, by every command
    ("flows.py", "import numpy as np\n",
     "import numpy as np\nimport numpy.random  # noqa: F401\n",
     (LAZY_IMPORTS,)),
    # `fit` without --jobs, which the fit-bookings workload passes
    ("cli.py", '            p.add_argument("--jobs", type=int, default=1)',
     '            if name != "fit":\n'
     '                p.add_argument("--jobs", type=int, default=1)',
     (COMMAND_LINES,)),
    # a Stage-I cap whose threshold equals the capacity estimate refused
    ("policies.py", "& (_threshold(n, q, iota, np.sqrt) <= hat_C))",
     "& (_threshold(n, q, iota, np.sqrt) < hat_C))",
     (HARD_CAP, BOOKING_CAPS)),
    # the cap's bisection stopped with a gap of 2: lo may be one short
    ("policies.py", "while (hi - lo > 1.0).any():",
     "while (hi - lo > 2.0).any():", (UNDERFLOW,)),
]
