"""Command-line surface: validate, product, divisible, induce, restrict,
torsion, standard, enumerate, standardize.

Exit codes: 0 holds/success, 1 fails, 2 unknown-within-bound, 3 usage,
4 load/IO error.  Every command prints a ResultDocument: human-readable by
default, canonical JSON with --json.  Outputs carry input content hashes and
no timing fields, so re-running a command on the same inputs reproduces the
document byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # each function imports what it runs
    from .rings import BasedRing, Verdict
    from .serialize import ProductCache

EXIT_USAGE = 3
EXIT_IO = 4

CACHE_ENV = "FUSIONKIT_CACHE"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); 2 means unknown here
        raise UsageError(message)


def _build_parser() -> _Parser:
    from .rings import DEFAULT_DEPTH
    parser = _Parser(prog="fusionkit",
                     description="exact fusion-ring and based-module toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, out: bool = False) -> None:
        p.add_argument("--depth", type=int, default=DEFAULT_DEPTH,
                       help="verification/search depth (default %(default)s)")
        p.add_argument("--json", action="store_true",
                       help="machine output instead of human-readable")
        p.add_argument("--no-cache", action="store_true",
                       help="ignore the product cache directory")
        if out:
            p.add_argument("--out", help="write the produced document here")

    p = sub.add_parser("validate", help="load and fully validate a definition file")
    p.add_argument("file")
    common(p)

    p = sub.add_parser("product", help="fusion product of two basis labels")
    p.add_argument("ring")
    p.add_argument("a")
    p.add_argument("b")
    common(p)

    p = sub.add_parser("divisible", help="search for a divisibility certificate")
    p.add_argument("ambient")
    p.add_argument("--sub", required=True, help="embedding definition file")
    common(p, out=True)

    p = sub.add_parser("induce", help="induce a module along a certificate")
    p.add_argument("module")
    p.add_argument("--cert", required=True)
    common(p, out=True)

    p = sub.add_parser("restrict", help="restrict a module along an embedding")
    p.add_argument("module")
    p.add_argument("--embed", required=True)
    p.add_argument("--decompose", action="store_true",
                   help="split into connected summands")
    common(p, out=True)

    p = sub.add_parser("torsion", help="co-finite and connected?")
    p.add_argument("module")
    common(p)

    p = sub.add_parser("standard", help="isomorphic to the regular module?")
    p.add_argument("module")
    common(p)

    p = sub.add_parser("enumerate", help="census of torsion modules")
    p.add_argument("ring")
    p.add_argument("--max-rank", type=int, required=True)
    p.add_argument("--max-coeff", type=int, required=True)
    p.add_argument("--max-seconds", type=float, default=None)
    common(p, out=True)

    p = sub.add_parser("standardize",
                       help="extract the source isomorphism from a standard "
                            "induced module")
    p.add_argument("module")
    p.add_argument("--cert", required=True)
    common(p)
    return parser


def _rings_of(obj: Any) -> List[BasedRing]:
    from .modules import BasedModule
    from .rings import BasedRing
    out: List[BasedRing] = []
    if isinstance(obj, BasedRing):
        out.append(obj)
    elif isinstance(obj, BasedModule):
        out.append(obj.ring)
        source = getattr(obj, "source", None)
        if source is not None:
            out.extend(_rings_of(source))
        cert = getattr(obj, "certificate", None)
        if cert is not None:
            out.extend(_rings_of(cert))
    else:  # an embedding, or a certificate and its embedding
        embedding = getattr(obj, "embedding", obj)
        out.extend([embedding.sub, embedding.ambient])
    return out


class _Session:
    """Loads inputs, records their content hashes, wires up the cache."""

    def __init__(self, depth: int, cache: Optional[ProductCache]):
        self.depth = depth
        self.cache = cache
        self.inputs: Dict[str, dict] = {}
        self.rings: List[BasedRing] = []

    def load(self, path: str, role: str, expect: Optional[str] = None) -> Any:
        from .serialize import content_hash, load_parsed, read_doc
        doc = read_doc(path)
        digest = content_hash(doc)
        self.inputs[role] = {"path": path, "hash": digest}
        obj = load_parsed(path, doc, self.depth, expect, digest)
        for ring in _rings_of(obj):
            if all(ring is not known for known in self.rings):
                self.rings.append(ring)
        return obj

    def finish(self) -> None:
        if self.cache is None:
            return
        for ring in self.rings:
            self.cache.load_into(ring)
            self.cache.flush(ring)


def _document(command: str, arguments: dict, session: _Session,
              verdict: Optional[Verdict], result: dict) -> dict:
    from .serialize import TOOL_VERSION
    return {
        "command": command,
        "arguments": arguments,
        "inputs": {role: session.inputs[role] for role in sorted(session.inputs)},
        "verdict": verdict.to_doc() if verdict is not None else None,
        "result": result,
        "version": TOOL_VERSION,
    }


def _emit(document: dict, as_json: bool, highlight: Optional[str] = None) -> None:
    from .serialize import canonical_json
    if as_json:
        print(canonical_json(document))
        return
    if highlight is not None:
        print(highlight)
    verdict = document.get("verdict")
    if verdict is not None:
        bound = verdict.get("bound")
        line = f"verdict: {verdict['status']}"
        if bound is not None:
            line += f" (within depth {bound})"
        print(line)
        if verdict.get("witness"):
            print(f"witness: {verdict['witness']}")
    for key in sorted(document.get("result", {})):
        if key == "pretty":
            continue
        value = document["result"][key]
        if isinstance(value, str):
            print(f"{key}: {value}")
        elif (isinstance(value, list) and value
                and all(isinstance(v, str) for v in value)):
            print(f"{key}:")
            for v in value:
                print(f"  {v}")
        else:
            print(f"{key}: {canonical_json(value)}")


def _maybe_write(args, value: Any) -> None:
    from .serialize import LoadError, canonical_json
    out = getattr(args, "out", None)
    if out and value is not None:  # a command without a document writes none
        text = canonical_json(value) + "\n"
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise LoadError(f"cannot write {out}: {exc}") from exc


def _resolve_label(ring: BasedRing, label: str, depth: int) -> str:
    from .elements import UnknownBasisError
    window = ring.basis_up_to_depth(depth)
    if label not in window:
        raise UnknownBasisError(
            f"label {label!r} is not in the basis window at depth {depth}; "
            f"window starts {window[:8]}")
    return label


def _cmd_validate(args, session: _Session) -> Tuple[Optional[Verdict], dict, Optional[str]]:
    from .serialize import loaded_verdict
    obj = session.load(args.file, "file")
    return loaded_verdict(obj), {"object": type(obj).__name__}, None


def _cmd_product(args, session: _Session):
    ring = session.load(args.ring, "ring", expect="ring")
    a = _resolve_label(ring, args.a, args.depth)
    b = _resolve_label(ring, args.b, args.depth)
    value = ring.product(a, b)
    pretty = value.format()
    result = {"a": a, "b": b, "product": dict(value.items()), "pretty": pretty}
    return None, result, pretty


def _cmd_divisible(args, session: _Session):
    from .rings import Verdict
    from .serialize import LoadError
    from .subrings import find_divisibility_certificate, verify_certificate
    ambient = session.load(args.ambient, "ambient", expect="ring")
    embedding = session.load(args.sub, "sub", expect="embedding")
    if not embedding.ambient.same_as(ambient):
        raise LoadError("the embedding's ambient ring does not match the "
                        "given ambient ring")
    search = find_divisibility_certificate(embedding, args.depth)
    if search.certificate is None:
        return (Verdict.unknown(args.depth, witness="no certificate within depth"),
                {"witnesses": list(search.witnesses)}, None)
    verdict = verify_certificate(search.certificate, args.depth)
    cert_doc = None if embedding.doc is None else search.certificate.to_doc()
    _maybe_write(args, cert_doc)
    return verdict, {"certificate": cert_doc, "witnesses": list(search.witnesses),
                     "classes": list(search.certificate.classes)}, None


def _cmd_induce(args, session: _Session):
    from .induction import induce
    from .modules import check_module_axioms, is_torsion
    from .rings import Verdict
    from .serialize import content_hash
    module = session.load(args.module, "module", expect="module")
    cert = session.load(args.cert, "cert", expect="certificate")
    induced = induce(module, cert, check_depth=args.depth)
    axioms = check_module_axioms(induced, args.depth)
    torsion = is_torsion(induced, args.depth)
    verdict = Verdict.combine(axioms, torsion)
    result = {"basis_size": len(induced.basis), "classes": len(cert.classes),
              "source_rank": len(module.basis), "axioms": axioms.to_doc(),
              "torsion": torsion.to_doc()}
    if induced.doc is not None:
        result["module"] = induced.doc
        result["provenance"] = {"source_hash": content_hash(module.doc),
                                "certificate_hash": content_hash(cert.to_doc())}
    _maybe_write(args, induced.doc)
    return verdict, result, None


def _cmd_restrict(args, session: _Session):
    from .induction import restrict, restrict_and_decompose
    from .rings import Verdict
    module = session.load(args.module, "module", expect="module")
    embedding = session.load(args.embed, "embed", expect="embedding")
    if args.decompose:
        summands = restrict_and_decompose(module, embedding, args.depth)
        docs = [summand.doc or {"basis": list(summand.basis)}
                for summand in summands]
        result = {"count": len(summands), "summands": docs}
        _maybe_write(args, docs)
        return Verdict.holds(), result, None
    # restrict checks the axioms at this depth and raises when they fail
    restricted = restrict(module, embedding, check_depth=args.depth)
    verdict = Verdict.holds_within(args.depth, restricted.ring, restricted)
    result: dict = {"rank": len(restricted.basis) if restricted.is_finite else None}
    if restricted.doc is not None:
        result["module"] = restricted.doc
    _maybe_write(args, restricted.doc)
    return verdict, result, None


def _cmd_torsion(args, session: _Session):
    from .modules import is_torsion
    module = session.load(args.module, "module", expect="module")
    return is_torsion(module, args.depth), {}, None


def _cmd_standard(args, session: _Session):
    from .modules import is_standard
    module = session.load(args.module, "module", expect="module")
    verdict = is_standard(module, args.depth)
    result = {}
    if verdict.is_holds and isinstance(verdict.data, dict):
        result["bijection"] = dict(sorted(verdict.data.items()))
    return verdict, result, None


def _cmd_enumerate(args, session: _Session):
    from .census import EnumerationBudget, enumerate_torsion_modules
    from .rings import Verdict
    from .serialize import census_doc
    ring = session.load(args.ring, "ring", expect="ring")
    budget = EnumerationBudget(args.max_rank, args.max_coeff, args.max_seconds)
    census = enumerate_torsion_modules(ring, budget)
    doc = census_doc(census)
    _maybe_write(args, doc)
    verdict = (Verdict.holds() if census.complete
               else Verdict.unknown(budget.max_rank,
                                    witness="budget exhausted; census incomplete"))
    return verdict, {"count": len(census.modules), "census": doc}, None


def _cmd_standardize(args, session: _Session):
    from .induction import induce, standardize_from_induced
    module = session.load(args.module, "module", expect="module")
    cert = session.load(args.cert, "cert", expect="certificate")
    induced = induce(module, cert, check_depth=args.depth)
    verdict = standardize_from_induced(induced, args.depth)
    if not verdict.is_holds:
        return verdict, {"induced_rank": len(induced.basis)}, None
    return verdict, {"bijection": dict(sorted(verdict.data.items()))}, None


_HANDLERS = {
    "validate": _cmd_validate,
    "product": _cmd_product,
    "divisible": _cmd_divisible,
    "induce": _cmd_induce,
    "restrict": _cmd_restrict,
    "torsion": _cmd_torsion,
    "standard": _cmd_standard,
    "enumerate": _cmd_enumerate,
    "standardize": _cmd_standardize,
}


def _argument_doc(args) -> dict:
    skip = {"command", "json", "no_cache"}
    return {key: value for key, value in sorted(vars(args).items())
            if key not in skip and value is not None}


def cli_dispatch(argv: List[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    from .elements import (CertificateDepthError, InvalidInputError,
                           UnknownBasisError)
    from .serialize import LoadError, ProductCache, ValidationFailure, load_session
    cache_dir = os.environ.get(CACHE_ENV)
    cache = None
    if cache_dir and not args.no_cache:
        cache = ProductCache(cache_dir)
    session = _Session(args.depth, cache)
    try:
        with load_session():
            try:
                verdict, result, highlight = _HANDLERS[args.command](args, session)
            finally:
                session.finish()
    except ValidationFailure as exc:
        document = _document(args.command, _argument_doc(args), session,
                             exc.verdict, {"error": exc.what})
        _emit(document, args.json)
        return exc.verdict.exit_code()
    except (LoadError, InvalidInputError, UnknownBasisError,
            CertificateDepthError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    document = _document(args.command, _argument_doc(args), session,
                         verdict, result)
    _emit(document, args.json, highlight=highlight)
    return verdict.exit_code() if verdict is not None else 0


def main(argv: Optional[List[str]] = None) -> int:
    return cli_dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
