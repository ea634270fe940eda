"""kellerlab: exact tools for polynomial endomorphisms.

Everything runs over exact coefficient fields (arbitrary-precision rationals
or integers modulo a prime): polynomial maps and their Jacobians, the Keller
condition, bounded formal inversion with sharp degree bounds for power-linear
maps, kernel-based reductions, and collinear-collision certificates over
prime fields.

The public names below load their module on first use and are looked up in
it on every use (PEP 562), so ``import kellerlab`` itself imports nothing
else and a name replaced in its module reads as the replacement here.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "ArityMismatch",
        "BadIndex",
        "BadSubInverse",
        "BadVariable",
        "BudgetExceeded",
        "DependenceViolation",
        "DependentInput",
        "DivisorNotUnit",
        "FieldMismatch",
        "InconsistentReduction",
        "KellerlabError",
        "NonSquare",
        "NotHomogeneous",
        "NotInvertibleUpToBound",
        "NotNormalized",
        "NotStrictlyLowerTriangular",
        "ParseError",
        "PreconditionError",
        "PreconditionFailed",
        "SingularLinearPart",
        "SingularMatrix",
        "TheoremViolation",
        "ZeroDirection",
    ),
    "scalars": ("Field", "Fp", "PrimeField", "QQ", "Rationals", "is_prime", "parse_scalar"),
    "field_linalg": ("Matrix", "complete_to_basis", "generalized_vandermonde"),
    "mpoly": ("MPoly", "parse", "render"),
    "unipoly": ("UniPoly", "rational_roots"),
    "polymap": ("PolyMap", "euler_check", "hadamard_power", "power_linear"),
    "polymatrix": ("PolyMatrix",),
    "inversion": (
        "AffineNormalization",
        "InverseResult",
        "VERDICT_NOT_UP_TO_BOUND",
        "VERDICT_POLYNOMIAL",
        "extend_inverse",
        "formal_inverse",
        "inverse_degree",
        "invert_polymap",
        "is_normalized",
        "normalize_affine",
        "triangular_inverse",
        "verify_inverse",
    ),
    "reduction": (
        "DegreeBoundReport",
        "KernelReduction",
        "constant_kernel",
        "degree_bound_report",
        "kernel_conjugate",
        "pair_reduction",
    ),
    "collinear": (
        "CollisionWitness",
        "DEFAULT_COLLISION_BUDGET",
        "LineInjectivity",
        "RankDropResult",
        "collision_search",
        "find_rank_drop",
        "line_injectivity",
    ),
    "certificates": ("LineData", "line_restriction", "verify_coefficient_rank", "verify_collision_obstruction"),
}

# public name -> defining submodule; each submodule is public under its own name
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULE_OF.update((module, module) for module in _EXPORTS)

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module_name = _MODULE_OF.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    return module if name == module_name else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
