"""``check_rate_equality`` on the near-degenerate pmfs of
``test_prop1_reference``: cells near 0, and pmfs close to a product, where
every slem is near 0 and ``RATE_TOL`` compares tiny numbers."""

from hypothesis import given, settings

from blockgibbs import check_rate_equality
from blockgibbs.analysis import RATE_TOL
from test_prop1_reference import near_degenerate_pmfs


@settings(max_examples=60, deadline=None)
@given(near_degenerate_pmfs())
def test_rate_equality_holds_on_near_degenerate_pmfs(pmf):
    report = check_rate_equality(pmf)
    assert report.verdict, (report.multiset_gap, report.slem_gap)
    assert report.multiset_gap <= RATE_TOL
    assert report.slem_gap <= RATE_TOL
