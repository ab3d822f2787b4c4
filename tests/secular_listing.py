"""The secular search as spectrum_with_count takes it for a graph with incommensurate lengths."""

from unittest import mock

from eulerchar import GraphError, spectrum, spectrum_with_count


def search_listing(g, count):
    """spectrum_with_count(g, count) with the equilateral subdivision refused, as it is for
    incommensurate lengths, so the secular search lists g and its brackets certify it. The
    refusal is g's table's, which keeps a subdivision once it has built one."""
    refusal = GraphError(f"{g.name!r} is listed by the secular search")
    with mock.patch.object(spectrum._Bonds, "subdivision", side_effect=refusal):
        return spectrum_with_count(g, count)
