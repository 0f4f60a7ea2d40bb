"""Criterion 02's oracle: the classes of a trace window found entry by entry.

Every positive-word matrix is visited by looping its diagonal and
factoring the off-diagonal product, then peeled back into R/L letters.
This shares nothing with the necklace generator in geodlab.words but the
canonical label and the primitivity test, so the two routes check each
other.
"""

from geodlab.words import canonical, is_primitive


def _peel_letters(a: int, b: int, c: int, d: int):
    """Greedy left peel of a nonnegative det-1 matrix into R/L letters."""
    out = []
    for _ in range(100000):
        if (a, b, c, d) == (1, 0, 0, 1):
            return out
        if c >= a and d >= b:
            out.append("R")
            c -= a
            d -= b
        elif a >= c and b >= d:
            out.append("L")
            a -= c
            b -= d
        else:
            return None
    return None


def _letters_to_exps(letters):
    if not letters or "R" not in letters or "L" not in letters:
        return None
    n = len(letters)
    start = None
    for i in range(n):
        if letters[i] == "R" and letters[i - 1] == "L":
            start = i
            break
    rot = letters[start:] + letters[:start]
    exps = []
    run_char, run = rot[0], 0
    for ch in rot:
        if ch == run_char:
            run += 1
        else:
            exps.append(run)
            run_char, run = ch, 1
    exps.append(run)
    return tuple(exps)


def classes_by_entry_search(trace_max: int, primitive_only: bool = True) -> set:
    """Canonical words of every class with 3 <= trace <= trace_max.

    Positive-word matrices have all entries >= 1, and in any such matrix
    each entry is below the trace, so looping the diagonal and factoring
    the off-diagonal product ad - 1 visits every class.  A completely
    different route from the necklace generator, kept as its consistency
    check.
    """
    found = set()
    for t in range(3, trace_max + 1):
        for a in range(1, t):
            d = t - a
            n = a * d - 1
            if n <= 0:
                continue
            for b in range(1, n + 1):
                if n % b:
                    continue
                letters = _peel_letters(a, b, n // b, d)
                if letters is None:
                    continue
                exps = _letters_to_exps(letters)
                if exps is None:
                    continue
                if primitive_only and not is_primitive(exps):
                    continue
                found.add(canonical(exps))
    return found
