"""Command-line interface.

Three command groups: ``nakayama`` (combinatorial engine, Kupisch series
input), ``quiver`` (table engine, presets or algebra description files),
and ``verify`` (batch suites).  Reports are deterministic JSON: byte
identical across runs with identical inputs and cutoffs.  Wall time is
printed to stderr only, so it never perturbs the report bytes.

Exit codes: 0 success, 1 falsification, 2 usage error or unmet
precondition, 4 failed internal re-check.  Every verdict is decided, so
no code reports an open answer.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import click

from . import __version__
from . import homology as hml
from . import nakayama as nak
from . import quivalg as qa
from . import rigidity as rg
from .exactmath import FieldSpec
from .suites import SUITES

def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _emit(command: str, inputs, items, report_path, fmt, started):
    failures = [it["name"] for it in items if not it["pass"]]
    doc = {
        "tool": "domdimlab",
        "version": __version__,
        "command": command,
        "input_digest": _digest(inputs),
        "items": items,
        "failures": failures,
    }
    if fmt == "csv":
        text = "name,pass\n" + "".join(f"{it['name']},{str(it['pass']).lower()}\n" for it in items)
    else:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if report_path:
        try:
            with open(report_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise click.UsageError(f"cannot write the report: {exc}")
    click.echo(text, nl=False)
    click.echo(f"[{command}] wall time {time.perf_counter() - started:.2f}s", err=True)
    if failures:
        sys.exit(1)


def _algebra_from_flags(cycle: bool, line: bool, kupisch: str) -> nak.NakAlgebra:
    if cycle == line:
        raise click.UsageError("exactly one of --cycle / --line is required")
    if not kupisch:
        raise click.UsageError("--kupisch is required")
    try:
        return nak.validate(nak.CYCLE if cycle else nak.LINE, nak.parse_kupisch(kupisch))
    except nak.KupischError as exc:
        raise click.UsageError(str(exc))


def _parse_nak_modules(A: nak.NakAlgebra, spec: str) -> list[nak.NakModule]:
    """Module spec grammar: simple[:v] | projective:v | dual-regular |
    omega:T:SPEC | i,k.  Omega^S Omega^T is Omega^(S+T), so nested omega
    prefixes are added up in one loop, however deep they go."""
    t = 0
    try:
        while spec.startswith("omega:"):
            _, t_str, inner = spec.split(":", 2)
            if int(t_str) < 0:
                raise ValueError("syzygy degree must be >= 0")
            t, spec = t + int(t_str), inner
        if spec == "dual-regular":
            modules = nak.dual_regular(A)
        elif spec == "simple" or spec.startswith("simple:"):
            modules = [nak.simple(A, int(spec.split(":", 1)[1]) if ":" in spec else 0)]
        elif spec.startswith("projective:"):
            modules = [nak.projective(A, int(spec.split(":", 1)[1]))]
        else:
            i_str, k_str = spec.split(",")
            modules = [nak.module(A, int(i_str), int(k_str))]
    except (ValueError, nak.NakInputError) as exc:
        raise click.UsageError(f"bad module spec {spec!r}: {exc}")
    return [om for M in modules if (om := nak.syzygy_power(A, M, t)) is not None]


def _load_table(preset: str | None, algebra: str | None) -> qa.AlgebraTable:
    if (preset is None) == (algebra is None):
        raise click.UsageError("exactly one of --preset / --algebra is required")
    try:
        if preset is not None:
            return qa.preset(preset)
        loaded = qa.load_algebra(algebra)
    except KeyError as exc:
        raise click.UsageError(str(exc))
    except (ValueError, TypeError) as exc:
        raise click.UsageError(f"cannot load algebra: {exc}")
    if isinstance(loaded, nak.NakAlgebra):
        return qa.nakayama_to_table(loaded, FieldSpec.prime(2))
    return loaded


def _parse_table_module(table: qa.AlgebraTable, spec: str) -> hml.Representation:
    """Module spec grammar: simple[:v] | projective:v"""
    kind, colon, vertex = spec.partition(":")
    try:
        if spec == "simple" or (colon and kind == "simple"):
            return hml.simple(table, int(vertex) if colon else 0)
        if colon and kind == "projective":
            return hml.projective(table, int(vertex))
    except ValueError as exc:
        raise click.UsageError(f"bad module spec {spec!r}: {exc}")
    raise click.UsageError(f"bad module spec {spec!r} (want simple[:v] or projective:v)")


_cutoff_option = click.option(
    "--cutoff", type=click.IntRange(min=1), default=64, show_default=True,
    help="search cutoff for bounded invariants")


def _at_most_size_limit(ctx, param, value):
    """Refuse a degree or length above ``qa.SIZE_LIMIT`` (read at call
    time) before any resolution is built."""
    if value > qa.SIZE_LIMIT:
        raise click.UsageError(f"{param.opts[0]} {value} exceeds the limit {qa.SIZE_LIMIT}")
    return value


_degree_option = click.option("--degree", type=click.IntRange(min=1), default=4,
                              show_default=True, callback=_at_most_size_limit)


def _one_or_two(ctx, param, modules):
    if len(modules) > 2:
        raise click.BadParameter(f"got {len(modules)} module specs, want one or two")
    return modules


_ext_modules_option = click.option(
    "--module", "modules", multiple=True, required=True, callback=_one_or_two,
    help="one or two module specs; Ext is from the first to the last")


# Input the engines reject as malformed, out of range or out of scope.
_INPUT_ERRORS = (
    nak.NakInputError,
    qa.RelationSyntaxError,
    qa.UnknownNameError,
    qa.SizeLimitError,
    hml.PreconditionError,
    hml.SemisimpleInputError,
)


class _Command(click.Command):
    """The one runner of every command.  It adds ``--report`` and
    ``--format`` after the command's own options, times the callback,
    which returns ``(report name, inputs, items)``, and emits the report;
    an item whose ``"pass"`` is false is a failure and exits 1.  Input
    errors and unmet preconditions exit 2 and failed internal re-checks
    (``AssertionError``) exit 4, so that exit 1 means falsification only."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.params += [
            click.Option(["--report"], type=click.Path(), help="also write the JSON report here"),
            click.Option(["--format", "fmt"], type=click.Choice(["json", "csv"]), default="json"),
        ]

    def invoke(self, ctx):
        report, fmt = ctx.params.pop("report"), ctx.params.pop("fmt")
        started = time.perf_counter()
        try:
            command, inputs, items = super().invoke(ctx)
        except _INPUT_ERRORS as exc:
            raise click.UsageError(str(exc), ctx)
        except AssertionError as exc:
            click.echo(f"internal error: {str(exc) or 'assertion failed'}", err=True)
            sys.exit(4)
        _emit(command, inputs, items, report, fmt, started)


class _Group(click.Group):
    command_class = _Command
    group_class = type  # subgroups are _Group too


@click.group(cls=_Group)
@click.version_option(__version__)
def main():
    """Exact homological invariants of finite-dimensional algebras."""


# ---------------------------------------------------------------------------
# nakayama group
# ---------------------------------------------------------------------------

@main.group()
def nakayama():
    """Combinatorial engine for connected Nakayama algebras."""


def _nak_flags(fn):
    fn = click.option("--kupisch", default="", help="comma-separated Kupisch series")(fn)
    fn = click.option("--line", is_flag=True, help="line orientation")(fn)
    fn = click.option("--cycle", is_flag=True, help="cycle orientation")(fn)
    return fn


@nakayama.command()
@_nak_flags
def info(cycle, line, kupisch):
    """Basic invariants of the algebra."""
    A = _algebra_from_flags(cycle, line, kupisch)
    item = {
        "name": "info",
        "pass": True,
        "orientation": A.orientation,
        "kupisch": list(A.kupisch),
        "simples": A.n,
        "dimension": sum(A.kupisch),
        "indecomposables": sum(A.kupisch),  # c_i modules M(i, k) at each vertex i
        "selfinjective": nak.is_selfinjective(A),
        "symmetric": nak.is_symmetric(A),
        "injective_dimensions": [nak.injective_dim_at(A, a) for a in range(A.n)],
    }
    return "nakayama info", item, [item]


@nakayama.command()
@_nak_flags
@_ext_modules_option
@_degree_option
def ext(cycle, line, kupisch, modules, degree):
    """Ext dimensions between (sums of) indecomposables."""
    A = _algebra_from_flags(cycle, line, kupisch)
    sources = _parse_nak_modules(A, modules[0])
    targets = _parse_nak_modules(A, modules[-1])
    # one syzygy chain per source serves every degree
    chains = [nak.syzygy_chain(A, M, degree) for M in sources]
    items = []
    for t in range(1, degree + 1):
        total = sum(nak.ext_on_chain(A, t, chain, N) for chain in chains for N in targets)
        items.append({"name": f"ext^{t}", "pass": True, "degree": t, "dim": total})
    return ("nakayama ext",
            {"algebra": A.to_json(), "modules": list(modules), "degree": degree}, items)


@nakayama.command()
@_nak_flags
@_cutoff_option
def domdim(cycle, line, kupisch, cutoff):
    """Dominant dimension (bounded search)."""
    A = _algebra_from_flags(cycle, line, kupisch)
    value = nak.domdim(A, cutoff)
    item = {"name": "domdim", "pass": True, "cutoff": cutoff,
            "domdim": value.to_json()}
    return "nakayama domdim", {"algebra": A.to_json(), "cutoff": cutoff}, [item]


@nakayama.command()
@_nak_flags
@click.option("--k", "kdeg", type=int, required=True)
@click.option("--module", "modules", multiple=True, required=True)
def rigid(cycle, line, kupisch, kdeg, modules):
    """k-rigidity of a direct sum of indecomposables."""
    A = _algebra_from_flags(cycle, line, kupisch)
    summands: list[nak.NakModule] = []
    for spec in modules:
        summands.extend(_parse_nak_modules(A, spec))
    verdict = rg.is_k_rigid(A, summands, kdeg)
    item = {"name": "rigid", "pass": True, "k": kdeg, "rigid": verdict,
            "modules": [[m.vertex, m.length] for m in sorted(set(summands))]}
    return ("nakayama rigid",
            {"algebra": A.to_json(), "k": kdeg, "modules": list(modules)}, [item])


@nakayama.command()
@_nak_flags
@click.option("--k", "kdeg", type=int, required=True)
def ok(cycle, line, kupisch, kdeg):
    """Exact maximal size of a k-rigid module (clique search)."""
    A = _algebra_from_flags(cycle, line, kupisch)
    rep = rg.o_k(A, kdeg)
    item = {"name": f"o_{kdeg}", "pass": True}
    item.update(rep.to_json())
    return "nakayama ok", {"algebra": A.to_json(), "k": kdeg}, [item]


@nakayama.command("verify-main")
@_nak_flags
@click.option("--k", "kdeg", type=int, required=True)
@_cutoff_option
def verify_main(cycle, line, kupisch, kdeg, cutoff):
    """Check the dominant-dimension inequality on one instance."""
    A = _algebra_from_flags(cycle, line, kupisch)
    rep = rg.verify_main_inequality(A, kdeg, cutoff)
    item = {"name": "main-inequality", "pass": bool(rep.verdict)}
    item.update(rep.to_json())
    return ("nakayama verify-main",
            {"algebra": A.to_json(), "k": kdeg, "cutoff": cutoff}, [item])


# ---------------------------------------------------------------------------
# quiver group
# ---------------------------------------------------------------------------

@main.group()
def quiver():
    """Linear-algebra engine for algebras given by tables, quivers or presets."""


def _table_flags(fn):
    fn = click.option("--preset", default=None)(fn)
    fn = click.option("--algebra", type=click.Path(exists=True), default=None)(fn)
    return fn


@quiver.command("compile")
@_table_flags
def compile_cmd(algebra, preset):
    """Compile / load an algebra and print its headline data."""
    table = _load_table(preset, algebra)
    item = {
        "name": "compile",
        "pass": True,
        "dimension": table.dim,
        "field": table.field.describe(),
        "basis": list(table.basis_names),
        "vertices": table.vertex_labels(),
        "radical_dim": len(table.radical),
        "loewy_length": qa.loewy_length(table),
    }
    return "quiver compile", {"preset": preset, "algebra": algebra}, [item]


@quiver.command()
@_table_flags
@click.option("--module", "module_spec", default="simple")
@click.option("--length", type=click.IntRange(min=1), default=4, show_default=True,
              callback=_at_most_size_limit)
def resolve(algebra, preset, module_spec, length):
    """Syzygy dimensions along the minimal projective resolution."""
    table = _load_table(preset, algebra)
    M = _parse_table_module(table, module_spec)
    dims = hml.syzygy_dims(M, length)
    item = {"name": "resolve", "pass": True, "module": M.name,
            "module_dim": M.dim, "syzygy_dims": dims}
    return ("quiver resolve",
            {"preset": preset, "algebra": algebra, "module": module_spec, "length": length},
            [item])


@quiver.command("ext")
@_table_flags
@_ext_modules_option
@_degree_option
def quiver_ext(algebra, preset, modules, degree):
    """Ext dimensions between two modules."""
    table = _load_table(preset, algebra)
    M = _parse_table_module(table, modules[0])
    N = _parse_table_module(table, modules[-1])
    ext = hml.ext_dims(M, N, degree, include_hom=True)
    item = {"name": "ext", "pass": True, "hom": ext.hom,
            "degrees": list(ext.degrees)}
    return ("quiver ext",
            {"preset": preset, "algebra": algebra, "modules": list(modules), "degree": degree},
            [item])


@quiver.command("domdim")
@_table_flags
@_cutoff_option
def quiver_domdim(algebra, preset, cutoff):
    """Dominant dimension of a table algebra (bounded search)."""
    table = _load_table(preset, algebra)
    value = hml.domdim(table, cutoff)
    item = {"name": "domdim", "pass": True, "cutoff": cutoff,
            "domdim": value.to_json()}
    return "quiver domdim", {"preset": preset, "algebra": algebra, "cutoff": cutoff}, [item]


@quiver.command()
@_table_flags
@click.option("--generators", "gen_exprs", multiple=True, required=True,
              help="ideal generators as relation-grammar expressions over basis names")
def ideal(algebra, preset, gen_exprs):
    """Two-sided ideal rigidity report: Hom(X, A/X) and Ext^1(X, X)."""
    table = _load_table(preset, algebra)
    X = hml.ideal_module(table, [table.element_from_expr(e) for e in gen_exprs])
    rep = hml.check_ideal_rigidity(table, X)
    item = {"name": "ideal-rigidity", "pass": rep.holds}
    item.update(rep.to_json())
    return ("quiver ideal",
            {"preset": preset, "algebra": algebra, "generators": list(gen_exprs)}, [item])


@quiver.command()
@_table_flags
@_cutoff_option
def predicates(algebra, preset, cutoff):
    """Structural predicates: local, selfinjective, symmetric, gendo-symmetric."""
    table = _load_table(preset, algebra)
    item = {
        "name": "predicates",
        "pass": True,
        "local": qa.is_local(table),
        "selfinjective": hml.is_selfinjective(table),
        "symmetric": qa.is_symmetric(table),
        "gendo_symmetric": hml.is_gendo_symmetric(table, max(cutoff, 2)),
    }
    return "quiver predicates", {"preset": preset, "algebra": algebra, "cutoff": cutoff}, [item]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@main.command()
@click.option("--suite", required=True)
def verify(suite):
    """Run a batch verification suite; exit 0 iff every item passes."""
    runner = SUITES.get(suite)
    if runner is None:
        raise click.UsageError(
            f"unknown suite {suite!r}; available: {', '.join(sorted(SUITES))}")
    return f"verify {suite}", {"suite": suite}, runner()


if __name__ == "__main__":
    main()
