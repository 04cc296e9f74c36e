"""Plain-text file formats: model files, input vector files, bare
matrix grids. Line-oriented; `#` starts a comment; blank lines are
ignored everywhere.

Model file:

    model SFCM optional free-text name
    component 1 CM fuzzy circle tri 5x5
    rows c1 c2 c3 c4 c5
    expert expert 1
    0 1 0 0 -1
    ...four more rows...
    component 2 ...
    end

`rows`/`cols`/`expert` lines are optional per component (cols only for
RM components); serialization always writes them, so a file round-trips
parse -> serialize -> parse to the identical model.

Vector file, one line per component, every line on the same side:

    domain 0 1 0 0 0
    domain 1 0 0 0 1

Matrix file: rows of scalar tokens, nothing else.

Numbers are ASCII digits: sizes and component indices are digits only,
and scalar tokens follow values.parse_scalar. A matrix block is read in
one pass: its rows are split with str.split(), their token counts
checked at once, all its tokens read by one values.parse_scalars call
and its declared domain checked once per distinct token text. Only a
block that fails a check is read again row by row, and only a line
holding a bad token is walked again to report that token's column.
Errors are ParseError with the line (and, for a bad scalar, the column),
or DomainError for an entry outside its declared domain.
"""

from __future__ import annotations

import re
from itertools import chain, islice
from operator import itemgetter

from .errors import DomainError, InvalidInput, ParseError
from .matrices import Matrix
from .models import Model, ModelClass, build_model
from .special import CM, ComponentTag, RM, SIDES, SpecialStateVector
from .values import (
    ValueDomain,
    _FrozenRecord,
    _ascii_int,
    _check_one_line,
    parse_scalar,
    parse_scalars,
    render_scalar,
)


class ModelFile(_FrozenRecord):
    """A parsed model file: the model plus its file-level name."""

    __slots__ = ("name", "model")

    def __init__(self, name: str, model: Model):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "model", model)


def _lines(text):
    """Significant (lineno, content) pairs; comments and blanks dropped.
    The content keeps its leading whitespace, so columns count from the
    start of the line."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.partition("#")[0].rstrip()
        if body:
            out.append((lineno, body))
    return out


def _scalar_row(line, lineno, expected=None, where="", skip=0):
    """The scalars of `line` after its first `skip` tokens. A count other
    than `expected` (when given) or a bad token raises ParseError; a bad
    token is reported at its column in the line."""
    tokens = line.split()[skip:]
    if expected is not None and len(tokens) != expected:
        raise ParseError(
            f"{where}: expected {expected} entries, got {len(tokens)}",
            line=lineno)
    try:
        return parse_scalars(tokens)
    except ParseError:
        pass
    # only a bad row pays for the columns: `\S+` splits where str.split()
    # does, so this walk meets the same tokens and the same first bad one
    for token in islice(re.finditer(r"\S+", line), skip, None):
        try:
            parse_scalar(token.group())
        except ParseError as exc:
            raise ParseError(exc.message, line=lineno,
                             col=token.start() + 1) from None


def _grid(lines, pos, rows, cols, where, domain):
    """The rows x cols Matrix over `domain` that the `rows` lines from
    lines[pos] spell, read in one pass. A block that fails a check is
    read again row by row, so the error is the first in file order: a
    wrong count or bad token, a truncation, then an entry outside
    `domain` (a DomainError naming `where` and the entry's line)."""
    block = lines[pos:pos + rows]
    split = list(map(str.split, map(itemgetter(1), block)))
    # the length test first: a truncated block may declare any size
    if len(block) == rows and list(map(len, split)) == [cols] * rows:
        tokens = list(chain.from_iterable(split))
        try:
            cells = parse_scalars(tokens)
            if domain is ValueDomain.ANY or all(map(
                    domain.contains, map(parse_scalar, set(tokens)))):
                return Matrix._of_checked(rows, cols, cells, domain)
        except ParseError:
            pass
    grid = [_scalar_row(line, lineno, cols, where) for lineno, line in block]
    if len(grid) < rows:
        raise ParseError(f"{where}: matrix truncated, expected {rows} rows",
                         line=lines[-1][0])
    try:
        return Matrix.from_rows(grid, domain=domain)
    except DomainError as exc:
        # the line of the first row holding an entry outside the domain,
        # the entry the error names
        lineno = next(n for (n, _), row in zip(block, grid)
                      if not all(map(domain.contains, row)))
        raise DomainError(f"line {lineno}: {where}: {exc}") from None


def _parse_size(token, lineno):
    parts = token.lower().split("x")
    if len(parts) != 2:
        raise ParseError(f"bad size {token!r}, expected RxC", line=lineno)
    try:
        rows, cols = _ascii_int(parts[0]), _ascii_int(parts[1])
    except ValueError:
        raise ParseError(f"bad size {token!r}, expected RxC",
                         line=lineno) from None
    if rows < 1 or cols < 1:
        raise ParseError(f"size {token!r} must be positive", line=lineno)
    return rows, cols


class ParsedStructure(_FrozenRecord):
    """Model file contents before class validation, so callers can report
    every diagnostic instead of stopping at the first. Components are
    (Matrix, ComponentTag) pairs; labels hold, per component, (rows,) or
    (rows, cols), and experts a name, each None if absent."""

    __slots__ = ("model_class", "name", "components", "labels", "experts")

    def __init__(self, model_class: ModelClass, name: str,
                 components: tuple, labels: tuple, experts: tuple):
        object.__setattr__(self, "model_class", model_class)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "experts", experts)


def parse_model_structure(text: str) -> ParsedStructure:
    lines = _lines(text)
    if not lines:
        raise ParseError("empty model file", line=1)
    pos = 0
    lineno, header = lines[pos]
    head_tokens = header.split()
    if head_tokens[0].lower() != "model" or len(head_tokens) < 2:
        raise ParseError("expected `model <class> [name]` header",
                         line=lineno)
    try:
        model_class = ModelClass.parse(head_tokens[1])
    except ParseError as exc:
        raise ParseError(exc.message, line=lineno) from None
    name = " ".join(head_tokens[2:])
    pos += 1

    components, labels, experts = [], [], []
    while pos < len(lines):
        lineno, line = lines[pos]
        tokens = line.split()
        if tokens[0].lower() == "end":
            pos += 1
            if pos < len(lines):
                extra_lineno = lines[pos][0]
                raise ParseError("content after `end`", line=extra_lineno)
            break
        if tokens[0].lower() != "component":
            raise ParseError(
                f"expected `component` or `end`, got {tokens[0]!r}",
                line=lineno)
        if len(tokens) != 7:
            raise ParseError(
                "expected `component <index> <kind> <algebra> <op> "
                "<domain> <RxC>`", line=lineno)
        try:
            index = _ascii_int(tokens[1])
        except ValueError:
            raise ParseError(f"bad component index {tokens[1]!r}",
                             line=lineno) from None
        if index != len(components) + 1:
            raise ParseError(
                f"component index {index} out of order, expected "
                f"{len(components) + 1}", line=lineno)
        try:
            tag = ComponentTag(kind=tokens[2].upper(),
                               algebra=tokens[3].lower(), op=tokens[4].lower())
            domain = ValueDomain.parse(tokens[5].lower())
        except ParseError as exc:
            raise ParseError(exc.message, line=lineno) from None
        rows, cols = _parse_size(tokens[6], lineno)
        pos += 1

        row_labels = col_labels = None
        expert = None
        while pos < len(lines):
            lineno, line = lines[pos]
            head = line.split(None, 1)[0].lower()
            if head == "rows":
                names = tuple(line.split()[1:])
                if len(names) != rows:
                    raise ParseError(
                        f"{len(names)} row labels for {rows} rows",
                        line=lineno)
                row_labels = names
            elif head == "cols":
                if tag.kind == CM:
                    raise ParseError(
                        "cols labels only apply to RM components",
                        line=lineno)
                names = tuple(line.split()[1:])
                if len(names) != cols:
                    raise ParseError(
                        f"{len(names)} column labels for {cols} columns",
                        line=lineno)
                col_labels = names
            elif head == "expert":
                rest = line.split(None, 1)
                expert = rest[1] if len(rest) > 1 else ""
            else:
                break
            pos += 1

        matrix = _grid(lines, pos, rows, cols, f"component {index}", domain)
        pos += rows
        components.append((matrix, tag))
        if tag.kind == CM:
            labels.append((row_labels,) if row_labels else None)
        else:
            labels.append((row_labels, col_labels))
        experts.append(expert)
    else:
        raise ParseError("missing `end` terminator", line=lines[-1][0])

    if not components:
        raise ParseError("model file has no components", line=lines[0][0])
    return ParsedStructure(
        model_class=model_class, name=name, components=tuple(components),
        labels=tuple(labels), experts=tuple(experts))


def parse_model_text(text: str) -> ModelFile:
    """Parse and fully validate a model file."""
    raw = parse_model_structure(text)
    model = build_model(raw.model_class, raw.components,
                        labels=raw.labels, experts=raw.experts)
    return ModelFile(name=raw.name, model=model)


def serialize_model(model, name: str = "") -> str:
    """Canonical text form; labels and expert lines are always written.
    A name or label that parse_model_text would not read back as itself
    (one holding a line break or `#`, a label that is not one token, a
    name with outer or repeated whitespace) raises InvalidInput."""
    if isinstance(model, ModelFile):
        name = model.name
        model = model.model
    _check_one_line("model name", name)
    _check_one_line("expert name", *model.experts)
    for what, text, back in [
            ("model name", name, " ".join(name.partition("#")[0].split())),
            *(("expert name", e, e.partition("#")[0].strip())
              for e in model.experts)]:
        if back != text:
            raise InvalidInput(f"{what} {text!r} reads back as {back!r}")
    for group in model.labels:
        for what, names in zip(("row label", "column label"), group):
            for label in names:
                if label.partition("#")[0].split() != [label]:
                    raise InvalidInput(
                        f"{what} {label!r} is not one token without '#'")
    out = [f"model {model.model_class.value}" + (f" {name}" if name else "")]
    for idx, (mat, tag) in enumerate(model.matrix):
        out.append(f"component {idx + 1} {tag.kind} {tag.algebra} "
                   f"{tag.op} {mat.domain.value} {mat.rows}x{mat.cols}")
        group = model.labels[idx]
        out.append("rows " + " ".join(group[0]))
        if tag.kind == RM:
            out.append("cols " + " ".join(group[1]))
        out.append(f"expert {model.experts[idx]}")
        for i in range(mat.rows):
            out.append(" ".join(render_scalar(v) for v in mat.row(i)))
    out.append("end")
    return "\n".join(out) + "\n"


def parse_vector_text(text: str) -> SpecialStateVector:
    lines = _lines(text)
    if not lines:
        raise ParseError("empty vector file", line=1)
    side = None
    parts = []
    for lineno, line in lines:
        tokens = line.split()
        tag = tokens[0].lower()
        if tag not in SIDES:
            raise ParseError(
                f"line must start with a side tag (domain|range), "
                f"got {tokens[0]!r}", line=lineno)
        if side is None:
            side = tag
        elif tag != side:
            raise ParseError(
                f"side {tag!r} disagrees with earlier side {side!r}; "
                f"a run is seeded on exactly one side", line=lineno)
        if len(tokens) < 2:
            raise ParseError("side tag with no entries", line=lineno)
        parts.append(_scalar_row(line, lineno, skip=1))
    return SpecialStateVector(parts, side)


def parse_matrix_text(text: str) -> Matrix:
    lines = _lines(text)
    if not lines:
        raise ParseError("empty matrix file", line=1)
    return _grid(lines, 0, len(lines), len(lines[0][1].split()), "matrix",
                 ValueDomain.ANY)


def serialize_matrix(matrix: Matrix) -> str:
    out = []
    for i in range(matrix.rows):
        out.append(" ".join(render_scalar(v) for v in matrix.row(i)))
    return "\n".join(out) + "\n"
