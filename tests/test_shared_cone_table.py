"""One cone table per results-table row.

``analyze_circuit`` passes one :class:`ConePrograms` table to the
floating, transition and MCT analyses of a row.  Sharing it must skip
compiles and nothing else: the answers, the "-" and "†" cells, the
ladder rung and the BDD counters are those of three private tables,
also when a budget runs out in the middle of a compile.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchgen import paper_example2, s27, suite_cases
from repro.delay import floating_delay, transition_delay, validity, validity_report
from repro.errors import AnalysisError
from repro.mct import MctOptions, build_discretized_machine, minimum_cycle_time
from repro.report import analyze_circuit, harness, run_case
from repro.timed.expansion import ConePrograms

from tests.test_timed_expansion import _delays_for, fig2_circuit


def _private(analysis):
    """``analysis`` with its ``programs=`` argument dropped."""

    def call(*args, programs=None, **kwargs):
        return analysis(*args, **kwargs)

    return call


def _row_with_private_tables(*args, **kwargs):
    with pytest.MonkeyPatch.context() as patch:
        for name in ("floating_delay", "transition_delay", "minimum_cycle_time"):
            patch.setattr(harness, name, _private(getattr(harness, name)))
        return analyze_circuit(*args, **kwargs)


def _row_facts(row):
    return (
        row.cells(with_cpu=False), row.mct_partial, row.mct_rung, row.bdd_stats,
    )


def _entries(delays, roots) -> int:
    """Cone entries a collection of ``roots`` charges."""
    programs = ConePrograms(delays)
    return sum(len(programs.program(root)) for root in roots)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    mode=st.sampled_from(["fixed", "widened", "asymmetric", "every-gate-widened"]),
    setup=st.sampled_from([Fraction(0), Fraction(1, 2)]),
    degrade=st.booleans(),
    data=st.data(),
)
def test_shared_table_matches_private_tables(seed, mode, setup, degrade, data):
    circuit, delays = _delays_for(mode, seed)
    delays = delays.with_setup_hold(setup, 0)
    entries = _entries(delays, circuit.combinational_roots)
    # Below ``entries`` the floating collection runs out inside a
    # compile; the MCT budget also covers its BDD nodes.
    comb_budget = data.draw(st.one_of(
        st.none(),
        st.integers(1, max(1, entries - 1)),
        st.integers(entries, 4 * entries),
    ))
    mct_budget = data.draw(st.one_of(
        st.none(),
        st.integers(1, max(1, entries - 1)),
        st.integers(entries, 40 * entries),
    ))
    args = (circuit, delays)
    kwargs = dict(
        mct_options=MctOptions(work_budget=mct_budget),
        comb_budget=comb_budget,
        degrade=degrade,
    )
    shared = analyze_circuit(*args, **kwargs)
    private = _row_with_private_tables(*args, **kwargs)
    assert _row_facts(shared) == _row_facts(private)


def test_shared_budget_cells_match_private_tables():
    """Both budget cells of one row run out mid-compile: floating and
    transition under ``comb_budget``, the sweep's collection under its
    work budget."""
    circuit, delays = fig2_circuit()
    entries = _entries(delays, circuit.combinational_roots)
    kwargs = dict(mct_options=MctOptions(work_budget=entries - 1),
                  comb_budget=entries - 1)
    shared = analyze_circuit(circuit, delays, **kwargs)
    assert shared.floating is None and shared.transition is None
    assert shared.mct is None
    assert _row_facts(shared) == _row_facts(
        _row_with_private_tables(circuit, delays, **kwargs)
    )


@pytest.mark.parametrize("entry", [
    "floating_delay", "transition_delay", "build_discretized_machine",
    "minimum_cycle_time",
])
def test_entry_points_refuse_another_maps_table(entry):
    circuit, delays = paper_example2()
    other = ConePrograms(delays.widen(Fraction(9, 10)))
    analysis = {
        "floating_delay": floating_delay,
        "transition_delay": transition_delay,
        "build_discretized_machine": build_discretized_machine,
        "minimum_cycle_time": minimum_cycle_time,
    }[entry]
    with pytest.raises(AnalysisError, match="another delay map"):
        analysis(circuit, delays, programs=other)


def _suite_row(name):
    case = next(case for case in suite_cases() if case.name == name)
    return lambda: run_case(case)


def _s27_row():
    circuit, delays = s27()
    return analyze_circuit(circuit, delays.widen(Fraction(9, 10)))


@pytest.mark.parametrize("row", [
    pytest.param(lambda: analyze_circuit(*paper_example2()), id="example2"),
    pytest.param(_s27_row, id="s27"),
    pytest.param(_suite_row("g444"), id="g444"),
    pytest.param(_suite_row("g38584"), id="g38584-comb-budget"),
])
def test_row_compiles_each_cone_once(monkeypatch, row):
    """One table per row; a compile that ran out of budget (g38584's
    Float and Trans cells) caches nothing and is not counted."""
    tables = []
    compiled = []
    real_init = ConePrograms.__init__
    real_compile = ConePrograms._compile

    def tracking_init(self, delays):
        real_init(self, delays)
        tables.append(self)

    def tracking_compile(self, root, extra, budget, deadline):
        program = real_compile(self, root, extra, budget, deadline)
        compiled.append((root, extra))
        return program

    monkeypatch.setattr(ConePrograms, "__init__", tracking_init)
    monkeypatch.setattr(ConePrograms, "_compile", tracking_compile)
    row()
    assert len(tables) == 1
    assert compiled and len(compiled) == len(set(compiled))


def test_validity_report_shares_one_table(monkeypatch):
    tables = []
    for name in ("floating_delay", "transition_delay"):
        analysis = getattr(validity, name)

        def spy(*args, analysis=analysis, **kwargs):
            tables.append(kwargs["programs"])
            return analysis(*args, **kwargs)

        monkeypatch.setattr(validity, name, spy)
    report = validity_report(*paper_example2())
    assert (report.floating, report.transition) == (4, 2)
    assert len(tables) == 2 and tables[0] is tables[1]
    assert isinstance(tables[0], ConePrograms)
