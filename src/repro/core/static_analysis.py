"""Static projection-functor analysis (the compile-time half of the hybrid design).

The paper's static analyzer recognizes "trivial projection functors like
constant (not injective), identity (injective), or the slightly more general
affine case (injective, iff it does not degenerate to a constant)".  The
strength of the analysis is deliberately modest: anything it cannot decide is
handed to the precise dynamic check (Section 4), so completeness here buys
only performance, never correctness.

This module also hosts the **shared symbolic affine engine** used by both
the runtime's hybrid analysis and the compiler's interference linter
(:mod:`repro.compiler.symbolic`).  The engine works on :class:`AffineForm`
normal forms — ``a*i + b`` optionally wrapped in ``mod m`` — and decides:

* **injectivity** over a dense window of known extent, exactly (affine by
  the nonzero-stride rule, modular by the classic period/GCD test:
  ``(a*i + b) mod m`` is injective over ``n`` consecutive points iff
  ``n <= m / gcd(a, m)``);
* **pairwise image disjointness** over bounded index ranges, via
  GCD/Banerjee-style residue reasoning, an exact bounded linear-Diophantine
  solve for affine pairs, and closed-form coset reasoning for full-period
  modular images (with exact enumeration as a small-range fallback).

Both layers consulting one engine is what guarantees the compiler's static
verdict and the runtime's check emission never drift apart.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.domain import Domain
from repro.core.projection import (
    AffineFunctor,
    AffineNDFunctor,
    ConstantFunctor,
    IdentityFunctor,
    Injectivity,
    ModularFunctor,
    ProjectionFunctor,
    QuadraticFunctor,
)

__all__ = [
    "StaticVerdict",
    "classify_functor",
    "analyze_static",
    "images_disjoint_static",
    "AffineForm",
    "affine_form",
    "functor_to_form",
    "form_injective",
    "form_images_disjoint",
    "residue_separated",
]

#: Largest per-range extent for which the disjointness engine will fall back
#: to exact image enumeration when no closed form applies.  Enumeration is
#: integer arithmetic on closed forms — still compile-time — but should not
#: become accidentally quadratic on huge literal bounds.
_ENUM_CAP = 4096


class StaticVerdict(enum.Enum):
    """What the static analysis concluded for one requirement."""

    SAFE = "safe"                   # proven injective (or read-only) at compile time
    UNSAFE = "unsafe"               # proven non-injective: reject without any check
    NEEDS_DYNAMIC = "needs-dynamic" # undecided: emit the Listing-3 dynamic check


def classify_functor(functor: ProjectionFunctor) -> str:
    """A coarse syntactic class label, mirroring Table 2's functor families."""
    if isinstance(functor, IdentityFunctor):
        return "identity"
    if isinstance(functor, ConstantFunctor):
        return "constant"
    if isinstance(functor, AffineFunctor):
        return "affine"
    if isinstance(functor, AffineNDFunctor):
        return "affine-nd"
    if isinstance(functor, ModularFunctor):
        return "modular"
    if isinstance(functor, QuadraticFunctor):
        return "quadratic"
    return "opaque"


def analyze_static(domain: Domain, functor: ProjectionFunctor) -> StaticVerdict:
    """Decide injectivity of ``functor`` over ``domain`` at compile time.

    Returns SAFE / UNSAFE when the functor's own static reasoning is
    conclusive, NEEDS_DYNAMIC otherwise.  This is the paper's deliberately
    modest per-launch analysis; the launch-time hot path keeps it cheap and
    leaves e.g. modular functors to the dynamic check (Table 2), while the
    whole-program linter applies the full symbolic engine offline.
    """
    verdict = functor.static_injectivity(domain)
    if verdict is Injectivity.INJECTIVE:
        return StaticVerdict.SAFE
    if verdict is Injectivity.NOT_INJECTIVE:
        return StaticVerdict.UNSAFE
    return StaticVerdict.NEEDS_DYNAMIC


# --------------------------------------------------------------------------
# The symbolic affine engine
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineForm:
    """Normal form of a 1-D index expression: ``a*i + b``, or ``(a*i + b) mod m``.

    Use :func:`affine_form` to construct — it canonicalizes coefficients
    (``mod`` forms reduce ``a`` and ``b`` into ``[0, m)`` and fold away when
    the modulus or the stride degenerates).
    """

    a: int
    b: int
    mod: Optional[int] = None

    @property
    def is_constant(self) -> bool:
        return self.a == 0 and self.mod is None

    def evaluate(self, i: int) -> int:
        v = self.a * i + self.b
        if self.mod is not None:
            v %= self.mod
        return v

    def describe(self, var: str = "i") -> str:
        if self.a == 0 and self.mod is None:
            return str(self.b)
        core = var if self.a == 1 else f"{self.a}*{var}"
        if self.b:
            core = f"{core} + {self.b}" if self.b > 0 else f"{core} - {-self.b}"
        if self.mod is not None:
            return f"({core}) mod {self.mod}"
        return core


def affine_form(a: int, b: int, mod: Optional[int] = None) -> AffineForm:
    """Canonicalizing constructor for :class:`AffineForm`."""
    a, b = int(a), int(b)
    if mod is None:
        return AffineForm(a, b)
    mod = int(mod)
    if mod <= 0:
        raise ValueError("modulus must be positive")
    a %= mod
    b %= mod
    if a == 0:
        return AffineForm(0, b)  # (0*i + b) mod m is the constant b mod m
    return AffineForm(a, b, mod)


def functor_to_form(functor: ProjectionFunctor) -> Optional[AffineForm]:
    """Express a 1-D runtime functor as an :class:`AffineForm`, or None.
    Exact classes only: a subclass may override ``apply``."""
    cls = type(functor)
    if cls is IdentityFunctor:
        return AffineForm(1, 0)
    if cls is ConstantFunctor:
        if functor.value.dim != 1:
            return None
        return AffineForm(0, int(functor.value[0]))
    if cls is AffineFunctor:
        return AffineForm(functor.a, functor.b)
    if cls is ModularFunctor:
        return affine_form(1, functor.k, mod=functor.n)
    return None


def form_injective(form: AffineForm, extent: int) -> bool:
    """Is ``form`` injective over any ``extent`` consecutive integers?

    Exact for every representable form: affine maps by the nonzero-stride
    rule; modular maps by the period test — ``(a*i + b) mod m`` repeats with
    period ``m / gcd(a, m)``, so it is injective over a dense window iff the
    window fits inside one period.  (Injectivity over a dense window depends
    only on the extent, not on where the window starts.)
    """
    if extent <= 1:
        return True
    if form.mod is None:
        return form.a != 0
    period = form.mod // math.gcd(form.a, form.mod)
    return extent <= period


def _char_stride(form: AffineForm) -> int:
    """Stride of the arithmetic progression containing the form's image.

    Every value of ``a*i + b`` lies in ``b + |a|*Z``; every value of
    ``(a*i + b) mod m`` lies in ``b + gcd(a, m)*Z``.  A stride of 0 means
    the image is the single point ``b``.
    """
    if form.mod is None:
        return abs(form.a)
    return math.gcd(form.a, form.mod)


def residue_separated(f: AffineForm, g: AffineForm) -> bool:
    """GCD residue test: True when the images cannot meet anywhere in Z.

    The classic dependence-analysis GCD test: ``a1*x + b1 = a2*y + b2`` has
    integer solutions only if ``gcd(a1, a2) | (b2 - b1)``; otherwise the
    images occupy distinct residue classes and are disjoint over *any*
    domain.  Applies to modular forms through their characteristic stride.
    """
    sf, sg = _char_stride(f), _char_stride(g)
    s = math.gcd(sf, sg)
    if s == 0:
        return f.b != g.b
    return (f.b - g.b) % s != 0


def _ceil_div(n: int, d: int) -> int:
    return -((-n) // d)


def _t_interval(coef: int, base: int, lo: int, hi: int):
    """Integer solutions of ``lo <= base + coef*t <= hi`` as ``(tmin, tmax)``.

    Returns None for an empty interval; (None, None) endpoints mean
    unbounded.
    """
    if coef == 0:
        return (None, None) if lo <= base <= hi else None
    if coef > 0:
        return (_ceil_div(lo - base, coef), (hi - base) // coef)
    return (_ceil_div(hi - base, coef), (lo - base) // coef)


def _affine_ranges_intersect(
    f: AffineForm, rf: Tuple[int, int], g: AffineForm, rg: Tuple[int, int]
) -> bool:
    """Exact overlap test for two mod-free forms over half-open index ranges.

    Decides whether ``f(x) == g(y)`` has a solution with ``x in [rf)`` and
    ``y in [rg)`` by solving the linear Diophantine equation
    ``a1*x - a2*y = b2 - b1`` and intersecting the solution line with the
    box of index bounds — the Banerjei-style exact test for single-index
    affine subscripts.
    """
    (lof, hif), (log_, hig) = rf, rg
    d = g.b - f.b
    if f.a == 0 and g.a == 0:
        return d == 0
    if f.a == 0:
        # b1 = a2*y + b2  ->  y = -d / a2
        if (-d) % g.a != 0:
            return False
        y = (-d) // g.a
        return log_ <= y <= hig - 1
    if g.a == 0:
        if d % f.a != 0:
            return False
        x = d // f.a
        return lof <= x <= hif - 1
    gg = math.gcd(f.a, g.a)
    if d % gg != 0:
        return False
    # Particular solution of a1*x - a2*y = d via the extended GCD.
    u, v = _ext_gcd(f.a, -g.a)  # f.a*u + (-g.a)*v = gcd(f.a, -g.a) = gg (sign-adjusted)
    scale = d // gg
    x0, y0 = u * scale, v * scale
    # General solution: x = x0 + (a2/gg)*t, y = y0 + (a1/gg)*t.
    ix = _t_interval(g.a // gg, x0, lof, hif - 1)
    iy = _t_interval(f.a // gg, y0, log_, hig - 1)
    if ix is None or iy is None:
        return False
    tmin = max((t for t in (ix[0], iy[0]) if t is not None), default=None)
    tmax = min((t for t in (ix[1], iy[1]) if t is not None), default=None)
    if tmin is None or tmax is None:
        return True  # at least one direction unbounded and the other nonempty
    return tmin <= tmax


def _ext_gcd(a: int, b: int) -> Tuple[int, int]:
    """Return ``(u, v)`` with ``a*u + b*v == gcd(a, b)`` (gcd taken positive)."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_u, old_v = -old_u, -old_v
    return old_u, old_v


def _modular_image_residues(form: AffineForm, extent: int) -> Optional[Tuple[int, int, int]]:
    """Closed-form image of a full-period modular form: ``(base, stride, m)``.

    When the window covers at least one full period, the image of
    ``(a*i + b) mod m`` is exactly the coset ``{ (b + k*g) mod m }`` for
    ``g = gcd(a, m)`` — every multiple of ``g`` shifted by ``b``.  Returns
    None when the window is partial (image depends on the window position).
    """
    if form.mod is None:
        return None
    g = math.gcd(form.a, form.mod)
    period = form.mod // g
    if extent < period:
        return None
    return (form.b % g, g, form.mod)


def _enumerate_image(form: AffineForm, rng: Tuple[int, int]) -> frozenset:
    return frozenset(form.evaluate(i) for i in range(rng[0], rng[1]))


def form_images_disjoint(
    f: AffineForm,
    range_f: Tuple[int, int],
    g: AffineForm,
    range_g: Tuple[int, int],
) -> Optional[bool]:
    """Decide whether two forms' images over half-open index ranges are disjoint.

    The launch-domain ranges may differ (cross-launch interference checks
    compare loops with different bounds).  Returns True/False when decided,
    None when the question must go to the dynamic check.  Decision ladder:

    1. empty ranges are trivially disjoint;
    2. the GCD residue test separates images occupying distinct residue
       classes, over any bounds;
    3. two mod-free affine forms get the exact bounded Diophantine solve;
    4. a full-period modular image is a coset of ``gcd(a, m)*Z`` — compared
       in closed form against constants and against other full-period
       modular images with the same modulus;
    5. small ranges are enumerated exactly;
    6. otherwise undecided (None).
    """
    (lof, hif), (log_, hig) = range_f, range_g
    nf, ng = hif - lof, hig - log_
    if nf <= 0 or ng <= 0:
        return True
    if residue_separated(f, g):
        return True
    if f.mod is None and g.mod is None:
        return not _affine_ranges_intersect(f, range_f, g, range_g)

    # Closed forms for full-period modular images.
    cf = _modular_image_residues(f, nf) if f.mod is not None else None
    cg = _modular_image_residues(g, ng) if g.mod is not None else None
    if cf is not None and g.is_constant:
        base, stride, m = cf
        return not (0 <= g.b < m and (g.b - base) % stride == 0)
    if cg is not None and f.is_constant:
        base, stride, m = cg
        return not (0 <= f.b < m and (f.b - base) % stride == 0)
    if cf is not None and cg is not None and cf[2] == cg[2]:
        # Two cosets of the same Z_m: they meet iff gcd(g1, g2) | (b1 - b2).
        return (cf[0] - cg[0]) % math.gcd(cf[1], cg[1]) != 0

    if nf <= _ENUM_CAP and ng <= _ENUM_CAP:
        return _enumerate_image(f, range_f).isdisjoint(_enumerate_image(g, range_g))
    return None


# --------------------------------------------------------------------------
# Runtime entry point (cross-check of Section 3)
# --------------------------------------------------------------------------

def images_disjoint_static(
    domain: Domain, f: ProjectionFunctor, g: ProjectionFunctor
) -> Optional[bool]:
    """Try to decide statically whether two functors' images over ``domain``
    are disjoint (the cross-check of Section 3).

    Returns True/False when decidable, None when the dynamic cross-check is
    required.  Functors expressible as :class:`AffineForm` (identity,
    constant, affine, modular) are decided by the shared symbolic engine —
    exactly over dense 1-D domains, and by the domain-independent GCD
    residue test otherwise.  Everything else (opaque callables, plane
    projections, N-D affine maps) stays with the dynamic check.
    """
    if domain.volume == 0:
        return True
    if f == g:
        return False  # identical images over a non-empty domain
    if type(f) is ConstantFunctor and type(g) is ConstantFunctor:
        return f.value != g.value
    ff = functor_to_form(f)
    gg = functor_to_form(g)
    if ff is None or gg is None:
        return None
    if domain.dense and domain.dim == 1:
        rng = (domain.bounds.lo[0], domain.bounds.hi[0] + 1)
        return form_images_disjoint(ff, rng, gg, rng)
    if residue_separated(ff, gg):
        return True  # distinct residue classes never meet, over any domain
    return None  # sparse domain: leave it to the dynamic check
