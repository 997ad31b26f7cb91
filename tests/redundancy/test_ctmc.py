"""CTMC reliability: closed-form cross-check, degeneracy, and bounds.

The mirror property test is the PR's acceptance criterion made
executable: the birth-death chain with ``unit_size=2, tolerance=1``
must reproduce Gibson's closed-form RAID-1 MTTDL
``(3*lam + mu) / (2*lam^2)`` across the whole physically plausible
(lam, mu) range — agreement here certifies the hitting-time sum and
the rate conventions at once; an exact rational solve of the generator
system pins the sum for longer chains.  Where the two *models*
diverge (max-AFR vs CTMC) is documented in DESIGN.md section 14 and
pinned by ``test_none_degenerates_to_per_disk_rate``.

Mission loss probability is pinned the same way: exactly against the
mirror's two-exponential absorption law, and against ``t / MTTDL`` in
the stiff rare-event regime (rebuild rate up to 1e7 times the failure
rate) that accelerated fault runs put the chain in.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.press.hazard import annual_failure_rate_to_rate
from repro.redundancy.ctmc import (
    HOURS_PER_YEAR,
    assess_scheme,
    loss_probability,
    mirror_mttdl_closed_form,
    mttdl_years,
)
from repro.redundancy.scheme import SCHEME_PRESETS, mirror_scheme

#: Physically plausible ranges: per-disk failure rates from pampered
#: (0.1%/yr) to abusive (~60%/yr AFR), rebuilds from 20 minutes to two
#: weeks.
LAMBDAS = st.floats(min_value=1e-3, max_value=1.0)
MUS = st.floats(min_value=HOURS_PER_YEAR / (14 * 24), max_value=HOURS_PER_YEAR / 0.33)


def _mttdl_exact(unit_size, tolerance, lam, mu):
    """MTTDL by an exact rational solve of ``-Q_T t = 1``, a reference.

    The transient generator's rates are converted to fractions exactly
    and the tridiagonal system is eliminated without rounding, so the
    reference has no conditioning loss at any ``mu / lam``.
    """
    lam, mu = Fraction(lam), Fraction(mu)
    dim = tolerance + 1
    a = [[Fraction(0)] * dim + [Fraction(1)] for _ in range(dim)]
    for j in range(dim):
        a[j][j] = (unit_size - j) * lam + j * mu
        if j < tolerance:
            a[j][j + 1] = -(unit_size - j) * lam
        if j > 0:
            a[j][j - 1] = -j * mu
    for col in range(dim):
        for row in range(col + 1, dim):
            factor = a[row][col] / a[col][col]
            a[row] = [x - factor * y for x, y in zip(a[row], a[col])]
    times = [Fraction(0)] * dim
    for row in reversed(range(dim)):
        rest = sum(a[row][k] * times[k] for k in range(row + 1, dim))
        times[row] = (a[row][dim] - rest) / a[row][row]
    return float(times[0])


def _mirror_loss_closed_form(lam, mu, years):
    """Exact P(loss by ``years``) of a 2-way mirror from both-up.

    The absorption time is a two-phase law: survival is
    ``(r2 e^{-r1 t} - r1 e^{-r2 t}) / (r2 - r1)``, where ``r1 < r2``
    are the roots of ``s^2 - (3 lam + mu) s + 2 lam^2``.
    """
    a, b = 3.0 * lam + mu, 2.0 * lam * lam
    r2 = 0.5 * (a + math.sqrt(a * a - 4.0 * b))
    r1 = b / r2
    return ((r1 * math.expm1(-r2 * years) - r2 * math.expm1(-r1 * years))
            / (r2 - r1))


@st.composite
def stiff_rare_chains(draw):
    """``(unit_size, tolerance, lam, mu, years)`` in the stiff rare-event regime.

    ``mu / lam`` spans 1e5-1e7 and missions 0.1-10 y, with ``lam * t <=
    0.1`` (loss is rare) and ``mu * t >= 1e4``.  The second bound keeps
    the rebuild transient, which puts ``t / MTTDL`` off by about
    ``1.5 / (mu * t)`` of itself, below 1.5e-4.
    """
    unit_size, tolerance = draw(st.sampled_from([(2, 1), (3, 2), (8, 2)]))
    years = draw(st.floats(min_value=0.1, max_value=10.0))
    log_ratio = draw(st.floats(min_value=5.0, max_value=7.0))
    log_lam_t = draw(st.floats(min_value=4.0 - log_ratio, max_value=-1.0))
    lam = 10.0 ** log_lam_t / years
    return unit_size, tolerance, lam, lam * 10.0 ** log_ratio, years


class TestMttdl:
    @given(chain=stiff_rare_chains())
    @settings(max_examples=100, deadline=None)
    def test_stiff_chains_match_the_exact_solve(self, chain):
        """The hitting-time sum is exact where a float solve of the
        generator is not: (3, 2) at mu/lam of 1e6-1e7 put the dense
        solve off by up to 1.3e-2."""
        unit_size, tolerance, lam, mu, _years = chain
        assert mttdl_years(unit_size, tolerance, lam, mu) == pytest.approx(
            _mttdl_exact(unit_size, tolerance, lam, mu), rel=1e-12)

    @given(lam=LAMBDAS, mu=MUS,
           shape=st.sampled_from([(1, 0), (2, 1), (3, 2), (8, 2), (9, 3)]))
    @settings(max_examples=100, deadline=None)
    def test_plausible_rates_match_the_exact_solve(self, lam, mu, shape):
        unit_size, tolerance = shape
        assert mttdl_years(unit_size, tolerance, lam, mu) == pytest.approx(
            _mttdl_exact(unit_size, tolerance, lam, mu), rel=1e-12)


class TestMirrorClosedForm:
    @given(lam=LAMBDAS, mu=MUS)
    @settings(max_examples=200, deadline=None)
    def test_ctmc_matches_gibson_raid1_formula(self, lam, mu):
        ctmc = mttdl_years(unit_size=2, tolerance=1, lam=lam, mu=mu)
        closed = mirror_mttdl_closed_form(lam, mu)
        # the hitting-time sum is the closed form, term by term
        assert ctmc == pytest.approx(closed, rel=1e-12)

    def test_at_the_papers_operating_point(self):
        # PRESS-style 10.5% AFR, a 10-minute accelerated-run rebuild
        lam = annual_failure_rate_to_rate(10.5)
        mu = HOURS_PER_YEAR / (1.0 / 6.0)
        assert mttdl_years(2, 1, lam, mu) == pytest.approx(
            mirror_mttdl_closed_form(lam, mu), rel=1e-9)

    def test_no_repair_limit(self):
        # mu = 0: MTTDL of the pure-death chain is 1/(2 lam) + 1/lam
        lam = 0.5
        assert mttdl_years(2, 1, lam, 0.0) == pytest.approx(
            1.0 / (2.0 * lam) + 1.0 / lam, rel=1e-12)
        assert mirror_mttdl_closed_form(lam, 0.0) == pytest.approx(
            3.0 / (2.0 * lam), rel=1e-12)


class TestDegeneracy:
    def test_none_degenerates_to_per_disk_rate(self):
        """scheme=none: MTTDL is exactly the per-disk failure time, so
        the CTMC and the legacy per-disk-AFR convention agree by
        construction (the documented point of contact between the two
        loss models)."""
        afr = 10.5
        res = assess_scheme(SCHEME_PRESETS["none"], [afr] * 8,
                            rebuild_hours=12.0)
        lam = annual_failure_rate_to_rate(afr)
        assert res.mttdl_unit_years == pytest.approx(1.0 / lam, rel=1e-12)
        assert res.mttdl_array_years == pytest.approx(1.0 / (8 * lam), rel=1e-12)
        assert res.loss_events_per_year == pytest.approx(8 * lam, rel=1e-12)

    def test_zero_afr_never_loses_data(self):
        res = assess_scheme(SCHEME_PRESETS["block4-2"], [0.0] * 8,
                            rebuild_hours=12.0)
        assert math.isinf(res.mttdl_array_years)
        assert res.p_loss_array == 0.0
        assert res.loss_events_per_year == 0.0


class TestLossProbability:
    @given(lam=LAMBDAS, mu=MUS, years=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_bounds_and_consistency(self, lam, mu, years):
        p = loss_probability(2, 1, lam, mu, years)
        assert 0.0 <= p <= 1.0
        # more time, no less risk
        assert loss_probability(2, 1, lam, mu, 2.0 * years) >= p - 1e-12

    def test_matches_exponential_approximation_when_rare(self):
        # for MTTDL >> mission, P(loss) ~ T / MTTDL; what is left is the
        # rebuild transient, ~1 / (mu * T) = 1.4e-3 of P at this point
        lam = annual_failure_rate_to_rate(10.5)
        mu = HOURS_PER_YEAR / 12.0
        mttdl = mttdl_years(2, 1, lam, mu)
        p = loss_probability(2, 1, lam, mu, 1.0)
        assert p == pytest.approx(1.0 / mttdl, rel=2e-3)

    @given(lam=LAMBDAS, mu=MUS, years=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=100, deadline=None)
    def test_mirror_matches_two_phase_closed_form(self, lam, mu, years):
        assert loss_probability(2, 1, lam, mu, years) == pytest.approx(
            _mirror_loss_closed_form(lam, mu, years), rel=1e-9)

    @given(chain=stiff_rare_chains())
    @settings(max_examples=100, deadline=None)
    def test_stiff_rare_loss_is_mission_over_mttdl(self, chain):
        unit_size, tolerance, lam, mu, years = chain
        mttdl = mttdl_years(unit_size, tolerance, lam, mu)
        assert loss_probability(unit_size, tolerance, lam, mu, years) == \
            pytest.approx(-math.expm1(-years / mttdl), rel=1e-3)

    def test_stiff_triple_mirror_point(self):
        # mu / lam = 1e6 over ten years: absorbed mass, not 1 - survival
        p = loss_probability(3, 2, 0.1, 1e5, 10.0)
        assert p == pytest.approx(3.0e-12, rel=1e-3)
        assert p == pytest.approx(
            -math.expm1(-10.0 / mttdl_years(3, 2, 0.1, 1e5)), rel=1e-3)

    def test_zero_horizon_and_zero_rate(self):
        assert loss_probability(2, 1, 0.5, 100.0, 0.0) == 0.0
        assert loss_probability(2, 1, 0.0, 100.0, 5.0) == 0.0


class TestAssessScheme:
    def test_redundancy_beats_bare_disks_by_orders_of_magnitude(self):
        afrs = [10.5] * 8
        bare = assess_scheme(SCHEME_PRESETS["none"], afrs, rebuild_hours=12.0)
        coded = assess_scheme(SCHEME_PRESETS["block4-2"], afrs,
                              rebuild_hours=12.0)
        assert coded.mttdl_array_years > 1e3 * bare.mttdl_array_years
        assert coded.p_loss_array < 1e-3 * bare.p_loss_array

    def test_mirror_units_are_replica_sets(self):
        res = assess_scheme(SCHEME_PRESETS["mirror3dc"], [5.0] * 9,
                            rebuild_hours=6.0)
        assert res.n_units == 3
        assert res.unit_size == 3
        assert res.tolerance == 2

    def test_unit_rate_is_max_of_members(self):
        # PRESS's least-reliable-disk convention applied per unit: the
        # worst member's rate drives its whole unit
        lop = [1.0, 20.0]
        res = assess_scheme(mirror_scheme(2), lop, rebuild_hours=12.0)
        lam = annual_failure_rate_to_rate(20.0)
        mu = HOURS_PER_YEAR / 12.0
        assert res.failure_rate_per_year == pytest.approx(lam, rel=1e-12)
        assert res.mttdl_unit_years == pytest.approx(
            mirror_mttdl_closed_form(lam, mu), rel=1e-9)

    def test_slower_rebuild_is_riskier(self):
        afrs = [10.5] * 8
        fast = assess_scheme(SCHEME_PRESETS["block4-2"], afrs, rebuild_hours=1.0)
        slow = assess_scheme(SCHEME_PRESETS["block4-2"], afrs, rebuild_hours=48.0)
        assert fast.mttdl_array_years > slow.mttdl_array_years
        assert fast.p_loss_array < slow.p_loss_array

    def test_array_mttdl_pools_units(self):
        one = assess_scheme(mirror_scheme(2), [10.0] * 2, rebuild_hours=12.0)
        four = assess_scheme(mirror_scheme(2), [10.0] * 8, rebuild_hours=12.0)
        assert four.n_units == 4
        assert four.mttdl_array_years == pytest.approx(
            one.mttdl_array_years / 4.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            assess_scheme(SCHEME_PRESETS["mirror2"], [5.0] * 2, rebuild_hours=0.0)
        with pytest.raises(ValueError):
            assess_scheme(SCHEME_PRESETS["mirror2"], [], rebuild_hours=1.0)
        with pytest.raises(ValueError):
            # array not a multiple of the group size
            assess_scheme(SCHEME_PRESETS["block4-2"], [5.0] * 6, rebuild_hours=1.0)
