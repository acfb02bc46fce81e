"""Exact rational linear-programming feasibility.

Phase-one simplex over Fractions with Bland's rule (guaranteed termination,
no tolerance anywhere).  Only feasibility is decided; when feasible, an
exact witness is returned and re-checked against the original constraints
before being handed out.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

LE, EQ, GE = "<=", "=", ">="


def lp_feasible(
    A,
    b: Sequence,
    relations: Sequence[str],
    nonneg: Sequence[bool],
) -> tuple[bool, list[Fraction] | None]:
    """Decide { x : A x (rel) b, x_j >= 0 where flagged } != empty, exactly.

    A is a sequence of rows.  Returns (feasible, witness); the witness
    satisfies every constraint exactly.
    """
    rows = [[Fraction(x) for x in row] for row in A]
    rhs = [Fraction(x) for x in b]
    if not (len(rows) == len(rhs) == len(relations)):
        raise ValueError("inconsistent system dimensions")
    nvars = len(nonneg)
    if any(len(r) != nvars for r in rows):
        raise ValueError("row length does not match variable count")
    if any(rel not in (LE, EQ, GE) for rel in relations):
        raise ValueError("relations must be one of <=, =, >=")

    # Expand free variables as differences of two nonnegative ones;
    # col_of maps original var -> (plus column, minus column | None).
    col_of: list[tuple[int, int | None]] = []
    ncols = 0
    for j in range(nvars):
        if nonneg[j]:
            col_of.append((ncols, None))
            ncols += 1
        else:
            col_of.append((ncols, ncols + 1))
            ncols += 2

    tableau: list[list[Fraction]] = []
    rel2: list[str] = []
    rhs2: list[Fraction] = []
    for row, rel, bv in zip(rows, relations, rhs):
        expanded = [Fraction(0)] * ncols
        for j, aij in enumerate(row):
            plus, minus = col_of[j]
            expanded[plus] = aij
            if minus is not None:
                expanded[minus] = -aij
        if bv < 0:
            expanded = [-x for x in expanded]
            bv = -bv
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
        tableau.append(expanded)
        rel2.append(rel)
        rhs2.append(bv)

    m = len(tableau)
    # Slack / surplus columns, then artificial columns.
    n_slack = sum(1 for rel in rel2 if rel in (LE, GE))
    total = ncols + n_slack
    art_rows = []
    basis = [0] * m
    si = ncols
    for i, rel in enumerate(rel2):
        pad = [Fraction(0)] * (n_slack)
        tableau[i] = tableau[i] + pad
        if rel == LE:
            tableau[i][si] = Fraction(1)
            basis[i] = si
            si += 1
        elif rel == GE:
            tableau[i][si] = Fraction(-1)
            si += 1
            art_rows.append(i)
        else:
            art_rows.append(i)
    for k, i in enumerate(art_rows):
        col = total + k
        for r in range(m):
            tableau[r] = tableau[r] + [Fraction(int(r == i))]
        basis[i] = col
    width = total + len(art_rows)

    # Phase-one objective: minimize the sum of artificial variables.
    zrow = [Fraction(0)] * width
    zval = Fraction(0)
    for i in art_rows:
        for j in range(width):
            zrow[j] += tableau[i][j]
        zval += rhs2[i]
    for k in range(len(art_rows)):
        zrow[total + k] -= 1

    while True:
        enter = next((j for j in range(width) if zrow[j] > 0), None)
        if enter is None:
            break
        # Ratio test with Bland tie-breaking on the leaving basis column.
        best = None
        for i in range(m):
            coef = tableau[i][enter]
            if coef > 0:
                ratio = rhs2[i] / coef
                if best is None or ratio < best[0] or (
                    ratio == best[0] and basis[i] < basis[best[1]]
                ):
                    best = (ratio, i)
        if best is None:
            # Unbounded phase-one objective cannot happen (bounded below by 0)
            raise RuntimeError("phase-one simplex detected unboundedness")
        _, leave = best
        piv = tableau[leave][enter]
        tableau[leave] = [x / piv for x in tableau[leave]]
        rhs2[leave] /= piv
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [x - f * y for x, y in zip(tableau[i], tableau[leave])]
                rhs2[i] -= f * rhs2[leave]
        f = zrow[enter]
        zrow = [x - f * y for x, y in zip(zrow, tableau[leave])]
        zval -= f * rhs2[leave]
        basis[leave] = enter

    if zval != 0:
        return False, None

    values = [Fraction(0)] * width
    for i, col in enumerate(basis):
        values[col] = rhs2[i]
    witness = []
    for j in range(nvars):
        plus, minus = col_of[j]
        witness.append(values[plus] - (values[minus] if minus is not None else 0))

    for row, rel, bv in zip(rows, relations, rhs):
        lhs = sum((aij * xj for aij, xj in zip(row, witness)), Fraction(0))
        ok = lhs <= bv if rel == LE else lhs >= bv if rel == GE else lhs == bv
        if not ok:
            raise AssertionError("simplex produced an invalid witness")
    for j in range(nvars):
        if nonneg[j] and witness[j] < 0:
            raise AssertionError("simplex produced an invalid witness")
    return True, witness
