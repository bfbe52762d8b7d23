"""Test-side cross-checks that the library does not call.

cohen_macaulay_direct checks Reisner's criterion face by face, one link
and one reduced_betti call per face, without the link view, the Hochster
table or its early-exit scans, so the verdict of depth_report has a
second code path to agree with.  It is O(faces x facets), which is why
it lives here rather than in qgor.
"""

from qgor import link, reduced_betti


def cohen_macaulay_direct(delta, field):
    """Reisner's criterion checked directly on links, without the table.

    k[Delta] is Cohen-Macaulay iff H~_i(lk sigma; k) = 0 for every face
    sigma (the empty face included) and every i < dim lk sigma.
    """
    if delta.is_void:
        raise ValueError("the void complex has no Stanley-Reisner ring")
    for sigma in delta.faces():
        lk = link(delta, sigma)
        b = reduced_betti(lk, field)
        for i in range(-1, lk.dim):
            if b[i]:
                return False
    return True
