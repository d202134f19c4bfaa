import gc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonmarkov import channels, dataset, measures, qmath
from nonmarkov.channels import (
    AmplitudeDamping,
    DrivenAmplitudeDamping,
    PhaseDamping,
    TimeGrid,
)
from nonmarkov.errors import ConfigError, TruncationLeakError

import oracles


def eigen_route_trace_distance(channel, grid):
    """Independent route: evolve the |+>, |-> pair and eigendecompose."""
    plus, minus = qmath.ket2dm(qmath.KET_PLUS), qmath.ket2dm(oracles.KET_MINUS)
    out = []
    for t in grid.values:
        if isinstance(channel, PhaseDamping):
            r1 = oracles.pd_apply(plus, t, channel.tau)
            r2 = oracles.pd_apply(minus, t, channel.tau)
        else:
            r1 = oracles.ad_apply(plus, t, channel.lam)
            r2 = oracles.ad_apply(minus, t, channel.lam)
        out.append(oracles.trace_distance(r1, r2))
    return np.array(out)


def eigen_route_concurrence(channel, grid):
    """Independent route: one-sided Kraus map on the Bell state + Wootters."""
    bell = qmath.ket2dm(qmath.KET_BELL)
    out = []
    for t in grid.values:
        if isinstance(channel, PhaseDamping):
            lam = channel.coherence(t)
            m1 = np.sqrt((1 + lam) / 2) * qmath.IDENTITY_2
            m2 = np.sqrt(max(0.0, (1 - lam) / 2)) * oracles.SIGMA_Z
        else:
            m1, m2 = oracles.ad_kraus(channel.coherence(t))
        k1, k2 = np.kron(np.eye(2), m1), np.kron(np.eye(2), m2)
        rho = k1 @ bell @ k1.conj().T + k2 @ bell @ k2.conj().T
        out.append(oracles.wootters_concurrence(rho))
    return np.array(out)


def bell_states(channel, grid):
    """Reduced Bell-pair states of the driven channel on the grid."""
    state = (qmath.ket2dm(qmath.KET_BELL), "bell")
    return channels._evolver(channel, [state], grid.t_max)[0](grid)


class TestSeries:
    def test_initial_distinguishability_is_one(self):
        grid = TimeGrid(5.0, 50)
        for ch in (PhaseDamping(0.5), AmplitudeDamping(1.3)):
            assert oracles.trace_distance_series(ch, grid)[0] == 1.0
            assert oracles.entanglement_series(ch, grid)[0] == 1.0

    def test_pd_series_equals_eigen_route(self):
        ch = PhaseDamping(0.5)
        grid = TimeGrid(10.0, 200)
        got = oracles.trace_distance_series(ch, grid)
        assert np.abs(got - eigen_route_trace_distance(ch, grid)).max() < 1e-12
        got_c = oracles.entanglement_series(ch, grid)
        assert np.abs(got_c - eigen_route_concurrence(ch, grid)).max() < 1e-7

    def test_ad_series_equals_eigen_route(self):
        ch = AmplitudeDamping(0.5)
        grid = TimeGrid(10.0, 200)
        got = oracles.trace_distance_series(ch, grid)
        assert np.abs(got - eigen_route_trace_distance(ch, grid)).max() < 1e-12
        assert np.abs(got - np.sqrt(oracles.ad_survival(grid.values, 0.5))).max() == 0.0
        got_c = oracles.entanglement_series(ch, grid)
        assert np.abs(got_c - eigen_route_concurrence(ch, grid)).max() < 1e-7

    def test_driven_series_reduces_to_closed_form_at_zero_drive(self):
        ch = DrivenAmplitudeDamping(lam=0.5, omega=0.0)
        grid = TimeGrid(6.0, 600)
        got = qmath.concurrence(bell_states(ch, grid))
        want = np.sqrt(oracles.ad_survival(grid.values, 0.5))
        assert np.abs(got - want).max() < 1e-6

    def test_trace_distance_rejects_driven(self):
        with pytest.raises(ConfigError):
            oracles.trace_distance_series(
                DrivenAmplitudeDamping(1.0, 0.1), TimeGrid(1.0, 10)
            )
        with pytest.raises(ConfigError):
            measures.n_trace_distance(DrivenAmplitudeDamping(1.0, 0.1))


class TestAccumulate:
    def test_monotone_series_gives_zero(self):
        value, grid_error = measures.positive_increments([1.0, 0.8, 0.5, 0.2, 0.1])
        assert value == 0.0 and grid_error == 0.0

    def test_single_revival_arithmetic(self):
        # one rise of 0.3; turning samples 0.4 (neighbours 1.0, 0.7) and 0.7
        # (neighbours 0.4, 0.2), so grid_error = 0.75 (0.3 + 0.2)
        value, grid_error = measures.positive_increments([1.0, 0.4, 0.7, 0.2])
        assert value == pytest.approx(0.3, abs=1e-15)
        assert grid_error == pytest.approx(0.375, abs=1e-15)
        # flat stretches and minima at exactly 0 (sudden death) miss nothing
        assert measures.positive_increments([0.5, 0.0, 0.0, 0.2])[1] == 0.0
        assert measures.positive_increments([0.5, 0.0, 0.2]) == (0.2, 0.0)

    def test_matches_scalar_loop_oracle(self):
        ch = PhaseDamping(0.5)
        series = oracles.trace_distance_series(ch, TimeGrid(20.0, 20000))
        got = measures.positive_increments(series)[0]
        want = oracles.positive_increment_sum(series.tolist())
        assert got == pytest.approx(want, abs=1e-12)


class TestMeasureValues:
    def test_markovian_pd_vanishes(self):
        r_d = measures.n_trace_distance(PhaseDamping(0.2))
        r_e = measures.n_entanglement(PhaseDamping(0.2))
        assert r_d.value == 0.0 and r_e.value == 0.0
        assert r_d.grid_error == 0.0 and r_e.grid_error == 0.0

    def test_weak_coupling_ad_vanishes(self):
        assert measures.n_entanglement(AmplitudeDamping(3.0)).value <= 1e-8

    def test_strong_coupling_ad_matches_brute_force(self):
        ch = AmplitudeDamping(0.1)
        res = measures.n_entanglement(ch)
        assert res.value > 0.0
        assert res.value == pytest.approx(oracles.revival_peak_sum(ch, 20.0), abs=1e-12)
        grid = TimeGrid(20.0, 20000)
        grid_sum = oracles.positive_increment_sum(
            np.sqrt(oracles.ad_survival(grid.values, 0.1)).tolist()
        )
        assert 0.0 <= res.value - grid_sum <= oracles.grid_tolerance(ch, 20.0, grid.spacing)

    def test_no_chance_agreement_between_grids(self):
        # a grid-doubling route stopped here on 20 000 vs 40 000 intervals
        # agreeing to 8e-6 at 0.1678840, 1.4e-4 below the measure
        ch = PhaseDamping(0.476)
        res = measures.n_trace_distance(ch)
        assert res.value == pytest.approx(0.16802568218066588, abs=1e-12)
        assert res.value == pytest.approx(oracles.revival_peak_sum(ch, 20.0), abs=1e-12)
        fine = oracles.grid_measure(ch, 20.0, 2_000_000)
        assert fine == pytest.approx(0.1680246, abs=1e-7)
        assert 0.0 <= res.value - fine < oracles.grid_tolerance(ch, 20.0, 1e-5)

    def test_result_carries_horizon_and_tail_bound(self):
        for ch in (PhaseDamping(0.45), AmplitudeDamping(0.3)):
            a, w2 = oracles.damped_rates(ch)
            q = np.exp(-a * np.pi / np.sqrt(w2))
            for res in (measures.n_trace_distance(ch), measures.n_entanglement(ch)):
                assert res.grid_error == 0.0 and res.horizon == 20.0
                assert 0.0 < res.tail_bound == pytest.approx(q / (1 - q) - res.value, abs=1e-15)
        short = measures.n_entanglement(AmplitudeDamping(0.3), TimeGrid(5.0, 10))
        assert short.horizon == 5.0
        assert short.value == pytest.approx(
            oracles.revival_peak_sum(AmplitudeDamping(0.3), 5.0), abs=1e-12
        )
        driven = measures.n_entanglement(DrivenAmplitudeDamping(0.5, 0.1), TimeGrid(2.0, 2000))
        assert driven.horizon == 2.0 and driven.tail_bound is None
        for bad in (-1.0, float("nan")):
            with pytest.raises(ConfigError):
                measures.closed_form_rows(PhaseDamping, 0.45, horizon=bad)

    @pytest.mark.parametrize("horizon", [float("inf"), -float("inf")])
    def test_infinite_horizon_is_config_error(self, horizon):
        # the peak count floor(horizon w / pi) has no value at inf
        with pytest.raises(ConfigError, match="finite"):
            measures.closed_form_rows(PhaseDamping, 0.5, horizon=horizon)

    def test_pd_threshold_dichotomy(self):
        for tau in np.arange(0.10, 0.245, 0.02):
            assert measures.n_trace_distance(PhaseDamping(tau)).value <= 1e-8
        for tau in np.arange(0.26, 0.505, 0.02):
            assert measures.n_trace_distance(PhaseDamping(tau)).value > 1e-8

    def test_ad_threshold_dichotomy(self):
        for lam in (2.0, 2.5, 3.0):
            assert measures.n_trace_distance(AmplitudeDamping(lam)).value <= 1e-8
        for lam in (0.5, 1.0, 1.9):
            assert measures.n_trace_distance(AmplitudeDamping(lam)).value > 1e-8

    def test_measures_agree_on_classification(self):
        for tau in (0.12, 0.2, 0.3, 0.45):
            d = measures.n_trace_distance(PhaseDamping(tau)).value
            e = measures.n_entanglement(PhaseDamping(tau)).value
            assert (d > 1e-8) == (e > 1e-8)
        for lam in (0.3, 1.0, 2.2, 3.0):
            d = measures.n_trace_distance(AmplitudeDamping(lam)).value
            e = measures.n_entanglement(AmplitudeDamping(lam)).value
            assert (d > 1e-8) == (e > 1e-8)

    def test_undriven_ad_measures_coincide(self):
        for lam in np.linspace(0.1, 2.9, 10):
            d = measures.n_trace_distance(AmplitudeDamping(lam)).value
            e = measures.n_entanglement(AmplitudeDamping(lam)).value
            assert abs(d - e) < 1e-8

    def test_leaking_attempt_assembles_no_states(self, monkeypatch):
        # (0.1, 0.5) leaks on every rung below 12; the guards of each such
        # attempt run before any state is assembled, from the top-level and
        # trace rows alone
        attempts, events = [], []
        generator, trajectories = channels._generator, channels._trajectories
        validate = qmath.validate_density

        def recording(ch, n):
            attempts.append(n)
            return generator(ch, n)

        def traced(modes, times):
            events.append((attempts[-1], "rows", modes[3].shape[1]))
            return trajectories(modes, times)

        def validating(rho, what="state"):
            events.append((attempts[-1], "states", len(rho)))
            return validate(rho, what)

        monkeypatch.setattr(channels, "_generator", recording)
        monkeypatch.setattr(channels, "_trajectories", traced)
        monkeypatch.setattr(qmath, "validate_density", validating)
        measures.driven_entanglement(DrivenAmplitudeDamping(0.1, 0.5), times=(3.0,))
        leaking = [n for n in channels.FOCK_LADDER if n < 12]
        assert attempts == leaking + [12]
        assert [e for e in events if e[0] < 12] == [(n, "rows", 2) for n in leaking]
        assert (12, "states", measures.DEFAULT_N_STEPS + 1) in events

    def test_failed_rung_leaves_no_garbage(self):
        # a leaking rung's exception is not kept: its traceback holds the
        # rung's frames and mode arrays in a reference cycle, which only the
        # cyclic collector would free
        ch = DrivenAmplitudeDamping(0.1, 0.5)
        measures.driven_entanglement(ch, times=(3.0,))
        gc.collect()
        gc.disable()
        try:
            measures.driven_entanglement(ch, times=(3.0,))
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("lam, omega", [(0.7, 0.5), (1.757, 0.5), (0.514, 0.05), (0.3, 0.0)])
    def test_truncation_error_against_next_rung(self, monkeypatch, lam, omega):
        # the stated truncation error (channels docstring): against the next
        # rung of FOCK_LADDER, features move by at most 30 LEAK_TOL and the
        # target by at most 3 LEAK_TOL
        ch = DrivenAmplitudeDamping(lam, omega)
        times = (3.0, 5.0, 6.0, 10.0)
        rungs, guarded = [], channels._guarded

        def recording(channel, n, states, t_max):
            out = guarded(channel, n, states, t_max)
            rungs.append(n)
            return out

        monkeypatch.setattr(channels, "_guarded", recording)
        got, features = measures.driven_entanglement(ch, times=times)
        ladder = channels.FOCK_LADDER
        monkeypatch.setattr(channels, "FOCK_LADDER", (ladder[ladder.index(rungs[0]) + 1],))
        want, want_features = measures.driven_entanglement(ch, times=times)
        assert np.abs(features - want_features).max() <= 30 * channels.LEAK_TOL
        assert abs(got.value - want.value) <= 3 * channels.LEAK_TOL

    def test_weak_coupling_passes_by_last_rung(self):
        # lambda = 0.1, the grid's most weakly damped pseudomode, climbs
        # furthest; every drive of the grid passes the leak guard by rung 16
        assert channels.FOCK_LADDER[-1] == 16
        states = [(qmath.ket2dm(qmath.KET_BELL), "bell"), (qmath.ket2dm(qmath.KET_PLUS), "plus")]
        for omega in dataset.omega_grid():
            channels._evolver(DrivenAmplitudeDamping(0.1, omega), states, measures.DEFAULT_T_MAX)

    def test_driven_measure_climbs_fock_ladder(self, monkeypatch):
        # (0.1, 0.5) leaks past n_fock = 8 over the horizon; the library
        # route retries at 12 and gives the table row's target bit for bit
        ch = DrivenAmplitudeDamping(0.1, 0.5)
        bell = (qmath.ket2dm(qmath.KET_BELL), "bell")
        with monkeypatch.context() as patch, pytest.raises(TruncationLeakError):
            patch.setattr(channels, "FOCK_LADDER", (8,))
            channels._evolver(ch, [bell], measures.DEFAULT_T_MAX)
        res = measures.n_entanglement(ch)
        assert res.tail_bound is None and res.grid_error >= 0.0
        table = dataset.generate("driven", times=(3.0,), count=1, omegas=(0.5,))
        assert table.params[0, 0] == 0.1 and res.value == table.targets[0]
        assert measures.driven_entanglement(ch, times=(3.0,))[0] == res

    def test_rungs_come_from_fock_ladder(self, monkeypatch):
        # a ladder started at 4 leaks at 4 and 8 for (0.1, 0.5), settles on
        # 12, and gives the default ladder's target and features bit for bit
        ch = DrivenAmplitudeDamping(0.1, 0.5)
        want, want_features = measures.driven_entanglement(ch, times=(3.0,))
        rungs, guarded = [], channels._guarded

        def recording(channel, n, states, t_max):
            try:
                out = guarded(channel, n, states, t_max)
            except TruncationLeakError:
                rungs.append((n, "leak"))
                raise
            rungs.append((n, "ok"))
            return out

        monkeypatch.setattr(channels, "_guarded", recording)
        monkeypatch.setattr(channels, "FOCK_LADDER", (4, 8, 12))
        got, features = measures.driven_entanglement(ch, times=(3.0,))
        assert rungs == [(4, "leak"), (8, "leak"), (12, "ok")]
        assert got == want and np.array_equal(features, want_features)
        # a ladder whose every rung leaks raises the last rung's leak
        monkeypatch.setattr(channels, "FOCK_LADDER", (2,))
        with pytest.raises(TruncationLeakError, match="n_fock = 2"):
            measures.driven_entanglement(ch, times=(3.0,))

    @pytest.mark.parametrize("lam, omega", [(0.6, 0.05), (0.5, 0.05)])
    def test_bloch_plus_matches_row_features(self, lam, omega):
        # bloch_plus guards the measure horizon, as a table row does, so both
        # settle on one rung and give the same features bit for bit
        ch = DrivenAmplitudeDamping(lam, omega)
        features = measures.driven_entanglement(ch, times=(3.0,))[1]
        assert np.array_equal(ch.bloch_plus([3.0]).reshape(-1), features)

    def test_bloch_plus_guards_past_the_horizon(self):
        # a time past the measure horizon extends the guarded interval to it
        lam, t = 0.6, 1.5 * measures.DEFAULT_T_MAX
        got = DrivenAmplitudeDamping(lam, 0.0).bloch_plus([t])
        assert np.abs(got - AmplitudeDamping(lam).bloch_plus([t])).max() < 1e-12

    def test_drive_suppresses_memory_effects(self):
        # fixed strong coupling, increasing drive: N_E non-increasing
        lam = 0.5
        values = [measures.n_entanglement(AmplitudeDamping(lam)).value]
        for om in (0.05, 0.1, 0.2):
            values.append(measures.n_entanglement(DrivenAmplitudeDamping(lam, om)).value)
        assert all(a >= b - 1e-9 for a, b in zip(values[:-1], values[1:]))



class TestDrivenGridError:
    """grid_error bounds the distance to the continuous-time measure, up to
    the 1e-8 rounding floor of the concurrence."""

    @pytest.mark.parametrize(
        "lam, omega",
        [(0.3, 0.0), (0.6, 0.15), (0.1, 0.5), (1.0, 0.05), (0.2, 0.02), (0.1, 0.01)],
    )
    def test_bounds_an_eightfold_finer_grid(self, lam, omega):
        ch = DrivenAmplitudeDamping(lam, omega)
        res = measures.n_entanglement(ch)
        fine = measures.n_entanglement(ch, TimeGrid(20.0, 160_000))
        assert abs(fine.value - res.value) <= res.grid_error + 1e-8

    def test_bounds_and_tracks_the_exact_zero_drive_measure(self):
        # at omega = 0 the concurrence is |G(t)|, whose cusps the refinement
        # brackets down to a few 1e-6 of time
        for lam in np.linspace(0.1, 2.9, 15):
            res = measures.n_entanglement(DrivenAmplitudeDamping(lam, 0.0))
            gap = abs(measures.n_entanglement(AmplitudeDamping(lam)).value - res.value)
            assert gap <= res.grid_error + 1e-8
            assert gap <= 1e-6

    def test_zero_in_last_interval_is_resolved(self):
        # at (0.45, 0) C = |G| reaches 0 at t = 19.9917, inside the last
        # coarse interval [19.98, 20], and rises after it: no increment of
        # the coarse samples changes sign there
        res = measures.n_entanglement(DrivenAmplitudeDamping(0.45, 0.0))
        exact = measures.n_entanglement(AmplitudeDamping(0.45)).value
        assert abs(res.value - exact) <= res.grid_error + measures.CONCURRENCE_FLOOR

    def test_turn_in_last_interval_is_resolved(self, monkeypatch):
        # at (0.24, 0.12) C has a maximum near t = 19.9925, inside the last
        # coarse interval; against a dense resampling of that interval,
        # joined to the measure's own samples before it, the value is off
        # by no more than its grid_error
        asked, series, seen = [], [], {}
        evolver, increments = channels._evolver, measures.positive_increments

        def recording(channel, states, t_max):
            seen["bell"], plus = evolver(channel, states, t_max)

            def bell(times):
                asked.append(getattr(times, "values", times))
                return seen["bell"](times)

            return bell, plus

        def summing(values):
            series.append(values)
            return increments(values)

        monkeypatch.setattr(channels, "_evolver", recording)
        monkeypatch.setattr(measures, "positive_increments", summing)
        res = measures.n_entanglement(DrivenAmplitudeDamping(0.24, 0.12))
        times, (values,) = np.sort(np.concatenate(asked)), series
        start = measures.default_grid().values[-2]
        k = int(np.flatnonzero(times == start)[0])
        dense = qmath.concurrence(seen["bell"](np.linspace(start, 20.0, 20_001)))
        want = measures.positive_increments(values[: k + 1])[0]
        want += measures.positive_increments(dense)[0]
        assert abs(res.value - want) <= res.grid_error

    @pytest.mark.parametrize("lam, omega", [(0.3, 0.0), (0.6, 0.15), (0.2, 0.02)])
    def test_refinement_only_adds(self, lam, omega):
        # the positive variation of a series cannot fall when samples are added
        ch = DrivenAmplitudeDamping(lam, omega)
        grid = measures.default_grid()
        coarse = measures.positive_increments(qmath.concurrence(bell_states(ch, grid)))[0]
        res = measures.n_entanglement(ch)
        assert res.value >= coarse
        assert res.value - coarse > 1e-10  # the refinement found something

    @pytest.mark.parametrize("lam, omega", [(0.15, 0.2), (2.9, 0.5), (0.6, 0.15)])
    def test_noise_and_sudden_death_are_not_refined(self, lam, omega, monkeypatch):
        # (0.15, 0.2): flat, noisy stretches; (2.9, 0.5): C dies at exactly 0;
        # (0.6, 0.15): a few smooth turns, each refined REFINE_ROUNDS deep
        states = []
        concurrence = qmath.concurrence

        def counting(rho):
            states.append(len(rho))
            return concurrence(rho)

        monkeypatch.setattr(qmath, "concurrence", counting)
        measures.n_entanglement(DrivenAmplitudeDamping(lam, omega))
        coarse = measures.DEFAULT_N_STEPS + 1
        assert states[0] == coarse
        assert coarse <= sum(states) <= coarse + 64


@settings(max_examples=60, deadline=None)
@example(kind="pd", u=0.25, horizon=20.0)  # tau = 0.2: w^2 < 0
@example(kind="ad", u=0.9, horizon=40.0)  # lambda = 2.705: w^2 < 0
@example(kind="pd", u=0.94, horizon=20.0)  # tau = 0.476
@given(
    kind=st.sampled_from(["ad", "pd"]),
    u=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    horizon=st.floats(1.0, 40.0),
)
def test_revival_measure_brackets_grid_oracle(kind, u, horizon):
    ch = AmplitudeDamping(0.05 + 2.95 * u) if kind == "ad" else PhaseDamping(0.1 + 0.4 * u)
    grid = TimeGrid(horizon, round(horizon / 1e-3))
    res = measures.n_entanglement(ch, grid)
    grid_sum = oracles.grid_measure(ch, horizon, grid.n_steps)
    # the exact sum bounds every grid sum from above, up to the rounding of
    # the sampled series
    assert res.value >= grid_sum - 1e-12
    assert res.value <= grid_sum + oracles.grid_tolerance(ch, horizon, grid.spacing)
    a, w2 = oracles.damped_rates(ch)
    if w2 <= 0.0:
        assert res.value == 0.0 and res.tail_bound == 0.0
    else:
        q = np.exp(-a * np.pi / np.sqrt(w2))
        assert res.value + res.tail_bound == pytest.approx(q / (1 - q), abs=1e-12)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


# one value per branch of channels._oscillation for each class, with a time
# (20) at which some are overdamped past a t = 700 and some not
BRANCHES = {
    AmplitudeDamping: [2.0, 2.0 + 1e-13, 0.3, 1.0, 2.5, 69.0, 71.0, 1e6],
    PhaseDamping: [0.25, 0.25 + 1e-14, 0.5, 0.2, 0.01],
}


def params(cls):
    """Parameter values over the domain the closed forms answer: lambda from
    1e-30 to 1e100, tau up to 1e16, and the branch points."""
    top = 100.0 if cls is AmplitudeDamping else 16.0
    return st.one_of(
        st.floats(-30.0, top).map(lambda e: 10.0**e),
        st.floats(0.05, 4.0),
        st.sampled_from(BRANCHES[cls]),
    )


class TestClosedFormRows:
    """An undriven table is one array pass of the closed forms; each of its
    rows is bit for bit the one-element call of every channel method and of
    both library measures."""

    def assert_rows_are_calls(self, cls, values, times, horizon):
        target, tail, feats = measures.closed_form_rows(cls, values, times, horizon)
        coh = cls.coherence_at(values, times)
        a, w2, _ = cls.rates_at(values)
        grid = TimeGrid(horizon, 1)
        for j, p in enumerate(values):
            ch = cls(p)
            res = measures.n_entanglement(ch, grid)
            assert bits(feats[j]) == bits(ch.bloch_plus(times).reshape(-1))
            assert bits(coh[j]) == bits(ch.coherence(times))
            assert (res.value, res.tail_bound) == (target[j], tail[j])
            assert bits(res.value) == bits(target[j])
            assert measures.n_trace_distance(ch, grid) == res
            assert bits(ch.rates_at(ch.param)[:2]) == bits([a[j], w2[j]])

    def test_every_branch(self):
        times = (0.0, 0.5, 3.0, 20.0)
        for cls, values in BRANCHES.items():
            a, w2, _ = cls.rates_at(values)
            reach = a * max(times)
            flat = np.abs(w2) < channels._DEGENERATE_TOL**2
            assert flat.any() and (w2 > 0).any()
            assert ((w2 < 0) & ~flat & (reach <= 700)).any()
            if cls is AmplitudeDamping:
                assert ((w2 < 0) & (reach > 700)).any()
            self.assert_rows_are_calls(cls, values, times, 20.0)
        # past nu = 700 for phase damping, whose a is 1
        self.assert_rows_are_calls(PhaseDamping, BRANCHES[PhaseDamping], (1.0, 700.5), 20.0)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        cls=st.sampled_from([AmplitudeDamping, PhaseDamping]),
        times=st.lists(st.floats(0.0, 1000.0), min_size=0, max_size=3, unique=True),
        horizon=st.floats(0.0, 40.0),
    )
    def test_rows_equal_one_element_calls(self, data, cls, times, horizon):
        values = data.draw(st.lists(params(cls), min_size=1, max_size=12))
        self.assert_rows_are_calls(cls, values, tuple(times), horizon)

    @pytest.mark.parametrize("kind", ["ad", "pd"])
    def test_paper_table_rows_are_library_calls(self, kind):
        # every row of the paper's grid, as generate computes it, is its
        # channel's bloch_plus and n_entanglement calls bit for bit, and the
        # math module's one-at-a-time closed forms within 1 ulp of 1
        # (features) and 2 (targets): numpy's exp, arctan and power round
        # otherwise than the math module's
        table = dataset.generate(kind)
        (t,) = table.schema.times
        eps = np.finfo(float).eps
        for (p, om), feats, target in zip(table.params, table.features, table.targets):
            ch = dataset.make_channel(kind, p, om)
            row, res = ch.bloch_plus((t,)).reshape(-1), measures.n_entanglement(ch)
            assert bits(row) == bits(feats) and bits(res.value) == bits(target)
            a, w2, _ = map(float, ch.rates_at(ch.param))
            coh = oracles.scalar_coherence(a, w2, t)
            want = [coh, 0.0, coh * coh - 1.0] if kind == "ad" else [coh, 0.0, 0.0]
            assert np.abs(feats - want).max() <= eps
            assert abs(target - oracles.scalar_revival_sum(a, w2, 20.0)) <= 2 * eps

    @pytest.mark.parametrize(
        "cls, values, message",
        [
            (AmplitudeDamping, [0.5, -1.0, float("nan")], "lambda must be finite and > 0, got -1.0"),
            (AmplitudeDamping, [0.5, float("inf"), -1.0], "lambda must be finite and > 0, got inf"),
            (AmplitudeDamping, [0.5, 1e300, 1e200], "lambda = 1e\\+300 is too large"),
            (PhaseDamping, [0.5, 0.0, -2.0], "tau must be finite and > 0, got 0.0"),
            (PhaseDamping, [0.5, 1e160, 1e170], "tau = 1e\\+160 is too large"),
            # the first bad value, whichever check it fails
            (AmplitudeDamping, [0.5, 1e300, -1.0], "lambda = 1e\\+300 is too large"),
            (PhaseDamping, [0.5, float("nan"), 1e160], "tau must be finite and > 0, got nan"),
        ],
    )
    def test_bad_values_name_the_first(self, cls, values, message):
        with pytest.raises(ConfigError, match=message):
            measures.closed_form_rows(cls, values, (3.0,))
        with pytest.raises(ConfigError, match=message):  # the channel of that value alone
            cls(values[1])
        kind = "ad" if cls is AmplitudeDamping else "pd"
        with pytest.raises(ConfigError, match=message):
            dataset.table_rows(kind, [(v, 0.0) for v in values])
