"""The secular search as spectrum_with_count takes it for a graph with incommensurate lengths."""

from unittest import mock

from eulerchar import GraphError, spectrum, spectrum_with_count


def search_listing(g, count):
    """spectrum_with_count(g, count) with the equilateral subdivision refused, as it is for
    incommensurate lengths, so the secular search lists g and its brackets certify it. The
    refusal is the subdivision property of g's table, which overrides a subdivision it keeps."""
    refusal = GraphError(f"{g.name!r} is listed by the secular search")
    with mock.patch.object(spectrum._Bonds, "subdivision", new_callable=mock.PropertyMock,
                           side_effect=refusal):
        return spectrum_with_count(g, count)
