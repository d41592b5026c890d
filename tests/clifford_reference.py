"""Loop reference for the dense blade-axis kernels.

These are the blade-by-blade kernels the package used before its Clifford
elements and forms moved onto one dense blade axis: elements are dicts from
blade bitmask to coefficient, the geometric product peels the left factor
into generator words, and the form operators loop over blades with scalar
jet coefficients.  The quantization map q(dx^I) is the k!-term sum over the
permutations of I.  Tests compare the dense operators against them.
``apply_dirac_jet`` is the composition reference for D^2: D applied to the
1-jet of D psi.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, permutations
from math import factorial
from typing import Dict, List

import numpy as np

from diracgeo.clifford import blade_indices, reorder_sign
from diracgeo.jets import Jet, index_contract


def jet_det(m: list) -> Jet:
    """Determinant of a square matrix of scalar jets by cofactor expansion
    (the Hodge-minor reference)."""
    k = len(m)
    if k == 1:
        return m[0][0]
    total = None
    for j in range(k):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * jet_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def quantize_blade(gammas, mask: int, one):
    """q(dx^I) = (1/k!) sum over the permutations of I of the sign times the
    gamma product, for gammas and ``one`` given as arrays or as jets."""
    idx = blade_indices(mask)
    if not idx:
        return one
    terms = [reduce(lambda t, i: t @ gammas[i], perm[1:], gammas[perm[0]])
             * float((-1) ** sum(a > b for a, b in combinations(perm, 2)))
             for perm in permutations(idx)]
    return sum(terms[1:], terms[0]) * (1.0 / factorial(len(idx)))


def _is_exact_zero(c) -> bool:
    return isinstance(c, (int, float, complex)) and c == 0


def _dict_add(acc: Dict[int, object], mask: int, coeff) -> None:
    if mask in acc:
        acc[mask] = acc[mask] + coeff
    else:
        acc[mask] = coeff


def dict_wedge(a: Dict[int, object], b: Dict[int, object]) -> Dict[int, object]:
    out: Dict[int, object] = {}
    for ma, ca in a.items():
        if _is_exact_zero(ca):
            continue
        for mb, cb in b.items():
            if ma & mb or _is_exact_zero(cb):
                continue
            s = reorder_sign(ma, mb)
            c = ca * cb
            _dict_add(out, ma | mb, c if s > 0 else -c)
    return out


def dict_epsilon_gen(i: int, a: Dict[int, object]) -> Dict[int, object]:
    """Left wedge by the single generator dx^i."""
    bit = 1 << i
    out: Dict[int, object] = {}
    for m, c in a.items():
        if m & bit or _is_exact_zero(c):
            continue
        s = reorder_sign(bit, m)
        _dict_add(out, m | bit, c if s > 0 else -c)
    return out


def dict_contract_weights(w, a: Dict[int, object]) -> Dict[int, object]:
    """Interior product with pairing weights w_j against each blade factor.

    iota(dx^{j_1} ^ ... ^ dx^{j_p}) = sum_t (-1)^(t-1) w_{j_t} * blade without j_t.
    """
    out: Dict[int, object] = {}
    for m, c in a.items():
        if _is_exact_zero(c):
            continue
        sign = 1
        for j in blade_indices(m):
            wj = w[j]
            if not _is_exact_zero(wj):
                term = wj * c
                _dict_add(out, m & ~(1 << j), term if sign > 0 else -term)
            sign = -sign
    return out


def dict_sum(*ds: Dict[int, object]) -> Dict[int, object]:
    out: Dict[int, object] = {}
    for d in ds:
        for m, c in d.items():
            _dict_add(out, m, c)
    return out


def clifford_action_dict(a_sym: Dict[int, object], phi: Dict[int, object],
                         b_inv_pairing) -> Dict[int, object]:
    """Apply c(a) to phi, both in symbol coordinates.

    The left factor is peeled into generator words by triangular elimination
    from the top degree down: the symbol of a generator word
    dx^{i_1}...dx^{i_p} (ascending) is the blade plus lower-degree terms, so
    subtracting word symbols clears one degree at a time.
    """
    n_top = max(a_sym.keys(), default=0).bit_length()

    def word_apply(indices: List[int], target: Dict[int, object]) -> Dict[int, object]:
        for i in reversed(indices):
            w_row = b_inv_pairing[i]
            eps = dict_epsilon_gen(i, target)
            iot = dict_contract_weights(w_row, target)
            target = dict_sum(eps, {m: -c for m, c in iot.items()})
        return target

    work = dict(a_sym)
    result: Dict[int, object] = {}
    for deg in range(n_top, -1, -1):
        masks = [m for m in work if m.bit_count() == deg]
        for mask in masks:
            lam = work.pop(mask)
            if _is_exact_zero(lam):
                continue
            idx = blade_indices(mask)
            contrib = word_apply(idx, phi)
            for m, c in contrib.items():
                _dict_add(result, m, lam * c)
            if deg >= 2:
                word_sym = word_apply(idx, {0: 1.0})
                for m, c in word_sym.items():
                    if m == mask or _is_exact_zero(c):
                        continue
                    _dict_add(work, m, -(lam * c))
    return result


# ---------------------------------------------------------------------------
# conversions between the blade axis and blade dicts
# ---------------------------------------------------------------------------


def to_dict(coeffs: np.ndarray) -> Dict[int, complex]:
    return {m: complex(c) for m, c in enumerate(coeffs)}


def to_array(d: Dict[int, complex], n: int) -> np.ndarray:
    out = np.zeros(1 << n, dtype=complex)
    for m, c in d.items():
        out[m] += c
    return out


def action_matrix(coeffs: np.ndarray, pairing: np.ndarray) -> np.ndarray:
    """Matrix of c(a) on the exterior module, one word-peeled column at a time."""
    dim = len(coeffs)
    n = dim.bit_length() - 1
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        image = clifford_action_dict(to_dict(coeffs), {col: 1.0}, pairing)
        out[:, col] = to_array(image, n)
    return out


def form_to_dict(j) -> Dict[int, Jet]:
    """Blade -> scalar jet for every blade of a dense form jet."""
    return {m: j[m] for m in range(1 << j.n)}


def dict_to_arrays(d: Dict[int, Jet], n: int, order: int, shape: tuple = ()):
    """(val, d, dd) blade-axis arrays of a blade -> jet dict, to ``order``;
    the jets have fiber ``shape``, placed after the blade axis."""
    dim = 1 << n
    out = [np.zeros((n,) * k + (dim,) + shape, dtype=complex) for k in range(order + 1)]
    for m, c in d.items():
        for k, part in enumerate((c.val, c.d, c.dd)[:order + 1]):
            out[k][(slice(None),) * k + (m,)] += part
    return out


# ---------------------------------------------------------------------------
# form operators, blade by blade
# ---------------------------------------------------------------------------


def exterior_derivative(coeffs: Dict[int, Jet], n: int) -> Dict[int, Jet]:
    out: Dict[int, Jet] = {}
    for m, c in coeffs.items():
        for i in range(n):
            bit = 1 << i
            if m & bit:
                continue
            term = c.gradient()[i]
            _dict_add(out, m | bit, term if reorder_sign(bit, m) > 0 else -term)
    return out


def iota_vector(comps: List[Jet], coeffs: Dict[int, Jet]) -> Dict[int, Jet]:
    return dict_contract_weights(comps, coeffs)


def wedge_forms(a: Dict[int, Jet], b: Dict[int, Jet]) -> Dict[int, Jet]:
    return dict_wedge(a, b)


def _metric_inverse_jets(mj) -> list:
    n = mj.n
    return [[Jet(mj.x, mj.g_inv[i, j], mj.dg_inv[:, i, j], mj.d2g_inv[:, :, i, j])
             for j in range(n)] for i in range(n)]


def _perm_sign_sorted(j_list: List[int], m_list: List[int]) -> int:
    """Sign of the permutation (j_list, m_list) of 0..n-1, both halves sorted."""
    inv = 0
    for j in j_list:
        inv += sum(1 for m in m_list if m < j)
    return -1 if inv % 2 else 1


def hodge_star(coeffs: Dict[int, Jet], mj, orientation: int = 1) -> Dict[int, Jet]:
    """Antilinear star: conjugates coefficients, complements blades.

    Output blade M of degree n-k gets sqrt|det g| * det(g^{-1}[rows idx,
    cols comp(M)]) * sign(perm(comp(M), M)) times each input coefficient.
    """
    n = mj.n
    ginv = _metric_inverse_jets(mj)
    sd = Jet(mj.x, mj.sqrt_abs_det, mj.dsqrt, mj.ddsqrt)
    full = (1 << n) - 1
    out: Dict[int, Jet] = {}
    for m, c in coeffs.items():
        idx = blade_indices(m)
        k = len(idx)
        cconj = c.conj()
        for mm in range(1 << n):
            if mm.bit_count() != n - k:
                continue
            cols = blade_indices(full & ~mm)
            if k:
                det = jet_det([[ginv[r][cc] for cc in cols] for r in idx])
            else:
                det = Jet.constant(1.0, mj.x)
            sgn = _perm_sign_sorted(cols, blade_indices(mm))
            _dict_add(out, mm, sd * det * float(orientation * sgn) * cconj)
    return out


def covariant_derivative(coeffs: Dict[int, Jet], mj) -> List[Dict[int, Jet]]:
    """nabla_a with nabla dx^j = -Gamma^j_ak dx^k on each blade factor."""
    n = mj.n
    gamma = [[[Jet(mj.x, mj.christoffel[k, i, j], mj.dchristoffel[:, k, i, j])
               for j in range(n)] for i in range(n)] for k in range(n)]
    outs = []
    for a in range(n):
        acc: Dict[int, Jet] = {}
        for mask, c in coeffs.items():
            _dict_add(acc, mask, c.gradient()[a])
            rest_all = blade_indices(mask)
            for pos, ip in enumerate(rest_all):
                rest = mask & ~(1 << ip)
                sgn_pos = -1 if pos % 2 else 1
                for m in range(n):
                    if (1 << m) & rest:
                        continue
                    sign = -1.0 * sgn_pos * reorder_sign(1 << m, rest)
                    term = gamma[ip][a][m] * c * sign
                    _dict_add(acc, rest | (1 << m), term)
        outs.append(acc)
    return outs


# ---------------------------------------------------------------------------
# superconnections on form-valued sections, blade by blade
# ---------------------------------------------------------------------------


def _graded(blades: Dict[int, Jet], comps: Dict[int, Jet], odd: int) -> Dict[int, Jet]:
    """sum_I dx^I ^ (omega_I comp_K) with the sign (-1)^((|I| + odd)|K|)."""
    out: Dict[int, Jet] = {}
    for mask, sec in comps.items():
        k = mask.bit_count()
        for imask, om in blades.items():
            if imask & mask:
                continue
            p = imask.bit_count()
            sgn = reorder_sign(imask, mask) * (-1) ** (((p + odd) % 2) * k)
            _dict_add(out, imask | mask, (om @ sec) * float(sgn))
    return out


def apply_superconnection(blades: Dict[int, Jet], comps: Dict[int, Jet],
                          n: int) -> Dict[int, Jet]:
    """d comps + sum_I dx^I (x) omega_I comps, Koszul sign (-1)^((|I|+1)|K|)."""
    out = exterior_derivative(comps, n)
    for mask, term in _graded(blades, comps, 1).items():
        _dict_add(out, mask, term)
    return out


def superconnection_curvature(blades: Dict[int, Jet], n: int) -> Dict[int, Jet]:
    """sum dx^c ^ dx^I (x) d_c omega_I + sum (-1)^((|I|+1)|J|) dx^I ^ dx^J (x) omega_I omega_J."""
    out = exterior_derivative(blades, n)
    for mask, term in _graded(blades, blades, 1).items():
        _dict_add(out, mask, term)
    return out


def apply_form_endomorphism(F: Dict[int, Jet], comps: Dict[int, Jet]) -> Dict[int, Jet]:
    """sum_F dx^F (x) F comps with the sign (-1)^(|F||K|)."""
    return _graded(F, comps, 0)


def apply_dirac_jet(D, j: Jet) -> Jet:
    """1-jet of D psi out of a 2-jet of psi, for a ``bundles.DiracOperatorData``
    D (compositional squaring route)."""
    return D.Z @ j + index_contract(D.gam, j.gradient() + D.A @ j)
