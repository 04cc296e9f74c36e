"""Model classes: structural predicates, labels, dispatch, diagnostics."""

import pytest

from fuzzymaps import (
    CM,
    DOMAIN_SIDE,
    RANGE_SIDE,
    RM,
    ClassViolation,
    ComponentTag,
    InvalidInput,
    Matrix,
    Model,
    ModelClass,
    NonzeroDiagonal,
    ParseError,
    Scalar,
    ValueDomain,
    WrongEntryPoint,
    build_model,
    SpecialMatrix,
    SpecialStateVector,
    parse_scalar,
    run,
    run_cm,
    validate_input,
)
from fuzzymaps.models import class_diagnostics, diagonal_diagnostics

TRI = ValueDomain.TRI
UNIT = ValueDomain.UNIT
NTRI = ValueDomain.NEUTRO_TRI
NUNIT = ValueDomain.NEUTRO_UNIT


def m(rows, domain):
    return Matrix.from_rows(
        [[parse_scalar(str(v)) for v in r] for r in rows], domain=domain)


F_SQ = m([[0, 1, 0], [0, 0, 1], [1, 0, 0]], TRI)
F_SQ4 = m([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]], TRI)
N_SQ = m([["0", "I", "0"], ["0", "0", "1"], ["1", "0", "0"]], NTRI)
F_RECT = m([[1, 0, -1], [0, 1, 0]], TRI)
F_RECT2 = m([[1, 0], [0, -1], [1, 1]], TRI)
N_RECT = m([["I", "0", "1"], ["0", "1", "0"]], NTRI)
F_REL = m([[0.3, 0.7, 1], [0.5, 0, 0.2]], UNIT)
N_REL = m([["0.3", "I", "1"], ["0.5", "0", "0.2"]], NUNIT)

CIRCLE_CM = ComponentTag()
CIRCLE_NCM = ComponentTag(algebra="neutrosophic")
CIRCLE_RM = ComponentTag(kind=RM)
CIRCLE_NRM = ComponentTag(kind=RM, algebra="neutrosophic")
MAXMIN_RM = ComponentTag(kind=RM, op="maxmin")
MAXMIN_NRM = ComponentTag(kind=RM, algebra="neutrosophic", op="maxmin")


def test_model_class_parse():
    assert ModelClass.parse("sfcm") is ModelClass.SFCM
    assert ModelClass.parse(" SSHM ") is ModelClass.SSHM
    with pytest.raises(ParseError, match="unknown model class 'SXYZ'"):
        ModelClass.parse("SXYZ")
    with pytest.raises(ParseError):
        build_model("SFXM", [(F_SQ, CIRCLE_CM)])


ACCEPTED = {
    ModelClass.SFCM: [(F_SQ, CIRCLE_CM), (F_SQ, CIRCLE_CM)],
    ModelClass.SMFCM: [(F_SQ, CIRCLE_CM), (F_SQ4, CIRCLE_CM)],
    ModelClass.SNCM: [(N_SQ, CIRCLE_NCM), (N_SQ, CIRCLE_NCM)],
    ModelClass.SMNCM: [(N_SQ, CIRCLE_NCM),
                       (m([["0", "I"], ["1", "0"]], NTRI), CIRCLE_NCM)],
    ModelClass.SFNCM: [(F_SQ, CIRCLE_CM), (N_SQ, CIRCLE_NCM)],
    ModelClass.SFRM: [(F_RECT, CIRCLE_RM), (F_RECT, CIRCLE_RM)],
    ModelClass.SMFRM: [(F_RECT, CIRCLE_RM), (F_RECT2, CIRCLE_RM)],
    ModelClass.SNRM: [(N_RECT, CIRCLE_NRM), (N_RECT, CIRCLE_NRM)],
    ModelClass.SMNRM: [(N_RECT, CIRCLE_NRM),
                       (m([["I", "1"], ["0", "I"]], NTRI), CIRCLE_NRM)],
    ModelClass.SFNRM: [(F_RECT, CIRCLE_RM), (N_RECT, CIRCLE_NRM)],
    ModelClass.SMFCFRM: [(F_SQ, CIRCLE_CM), (F_RECT, CIRCLE_RM)],
    ModelClass.SMNCNRM: [(N_SQ, CIRCLE_NCM), (N_RECT, CIRCLE_NRM)],
    ModelClass.SMFCRNCRM: [(F_SQ, CIRCLE_CM), (N_SQ, CIRCLE_NCM),
                           (F_RECT, CIRCLE_RM), (N_RECT, CIRCLE_NRM)],
    ModelClass.SFRE: [(F_REL, MAXMIN_RM), (F_REL, MAXMIN_RM)],
    ModelClass.SMFRE: [(F_REL, MAXMIN_RM),
                       (m([[0.1, 0.2], [1, 0.5]], UNIT), MAXMIN_RM)],
    ModelClass.SNRE: [(N_REL, MAXMIN_NRM), (N_REL, MAXMIN_NRM)],
    ModelClass.SMNRE: [(N_REL, MAXMIN_NRM),
                       (m([["I", "0.2"]], NUNIT), MAXMIN_NRM)],
    ModelClass.SSHM: [(F_SQ, CIRCLE_CM), (N_RECT, CIRCLE_NRM),
                      (F_REL, MAXMIN_RM)],
}


@pytest.mark.parametrize("cls", list(ModelClass), ids=lambda c: c.value)
def test_every_class_accepts_its_shape(cls):
    model = build_model(cls, ACCEPTED[cls])
    assert isinstance(model, Model)
    assert model.model_class is cls
    assert class_diagnostics(cls, model.matrix) == []


REJECTED = {
    # uniform-shape classes refuse mixed sizes
    ModelClass.SFCM: [(F_SQ, CIRCLE_CM), (F_SQ4, CIRCLE_CM)],
    ModelClass.SNCM: [(N_SQ, CIRCLE_NCM),
                      (m([["0", "I"], ["1", "0"]], NTRI), CIRCLE_NCM)],
    ModelClass.SFRM: [(F_RECT, CIRCLE_RM), (F_RECT2, CIRCLE_RM)],
    ModelClass.SNRM: [(N_RECT, CIRCLE_NRM),
                      (m([["I", "1"], ["0", "I"]], NTRI), CIRCLE_NRM)],
    ModelClass.SFRE: [(F_REL, MAXMIN_RM),
                      (m([[0.1, 0.2], [1, 0.5]], UNIT), MAXMIN_RM)],
    ModelClass.SNRE: [(N_REL, MAXMIN_NRM),
                      (m([["I", "0.2"]], NUNIT), MAXMIN_NRM)],
    # wrong algebra
    ModelClass.SMFCM: [(N_SQ, CIRCLE_NCM)],
    ModelClass.SMNCM: [(F_SQ, CIRCLE_CM)],
    ModelClass.SMFRM: [(N_RECT, CIRCLE_NRM)],
    ModelClass.SMNRM: [(F_RECT, CIRCLE_RM)],
    ModelClass.SMFRE: [(N_REL, MAXMIN_NRM)],
    ModelClass.SMNRE: [(F_REL, MAXMIN_RM)],
    # wrong kind
    ModelClass.SFNCM: [(F_SQ, CIRCLE_CM), (N_RECT, CIRCLE_NRM)],
    ModelClass.SFNRM: [(F_RECT, CIRCLE_RM), (N_SQ, CIRCLE_NCM)],
    # mixtures that fail the must-have-both rule
    ModelClass.SMFCFRM: [(F_SQ, CIRCLE_CM), (F_SQ4, CIRCLE_CM)],
    ModelClass.SMNCNRM: [(N_RECT, CIRCLE_NRM)],
    # wrong operator
    ModelClass.SMFCRNCRM: [(F_REL.with_domain(UNIT),
                            ComponentTag(kind=RM, op="maxmin")),
                           (F_SQ, ComponentTag(op="minmax"))],
    ModelClass.SSHM: [(F_SQ, CIRCLE_CM),
                      (F_REL, ComponentTag(kind=RM, op="maxmin")),
                      (N_SQ, ComponentTag(algebra="neutrosophic",
                                          op="maxmin"))],
}


@pytest.mark.parametrize("cls", sorted(REJECTED, key=lambda c: c.value),
                         ids=lambda c: c.value)
def test_class_predicates_reject(cls):
    if cls in (ModelClass.SMFCRNCRM, ModelClass.SSHM):
        # free-operator classes still check the value-domain pairing
        comps = REJECTED[cls]
        special = SpecialMatrix(comps)
        problems = class_diagnostics(cls, special)
        assert problems
        assert any("needs" in p for p in problems)
        return
    with pytest.raises(ClassViolation):
        build_model(cls, REJECTED[cls])


def test_domain_pairing_diagnostics():
    # a circle component over membership values makes no sense
    special = SpecialMatrix([(F_REL, CIRCLE_RM)])
    problems = class_diagnostics(ModelClass.SMFRM, special)
    assert len(problems) == 1
    assert "needs tri" in problems[0]
    # and a maxmin component over signed tags is equally wrong
    special = SpecialMatrix([(F_RECT, MAXMIN_RM)])
    problems = class_diagnostics(ModelClass.SMFRE, special)
    assert any("needs unit" in p for p in problems)


def test_neutro_domain_may_carry_fuzzy_values():
    # declared neutro-tri but containing only signed tags is fine
    plain = m([["0", "1"], ["-1", "0"]], NTRI)
    assert class_diagnostics(
        ModelClass.SMNCM,
        SpecialMatrix([(plain, CIRCLE_NCM)])) == []


def test_diagonal_rule_applies_to_circle_squares_only():
    loop = m([[1, 1, 0], [0, 0, 1], [1, 0, 0]], TRI)
    with pytest.raises(NonzeroDiagonal) as err:
        build_model(ModelClass.SMFCM, [(loop, CIRCLE_CM)])
    assert "(1,1)" in str(err.value)
    # membership squares keep their diagonals
    rel_sq = m([[0.9, 0.2], [0.3, 0.4]], UNIT)
    assert diagonal_diagnostics(
        SpecialMatrix([(rel_sq, ComponentTag(op="maxmin"))])) == []
    # rectangular components are never checked
    assert diagonal_diagnostics(SpecialMatrix([(F_RECT, CIRCLE_RM)])) == []


def test_diagonal_cells_are_named_as_they_render():
    # a diagonal cell is zero only when both its coefficients are
    special = SpecialMatrix([
        (m([["I", "0"], ["1", "0"]], NTRI), CIRCLE_NCM),
        (m([[0, 1, 0], [1, 0, 0], [0, 1, -1]], TRI), CIRCLE_CM),
        (m([["0", "1"], ["1", "0"]], NTRI), CIRCLE_NCM)])
    assert diagonal_diagnostics(special) == [
        "component 1: diagonal cell (1,1) is I, must be 0",
        "component 2: diagonal cell (3,3) is -1, must be 0"]


def test_diagonal_reported_before_class_problems():
    loop = m([[1, 1], [0, 0]], TRI)
    with pytest.raises(NonzeroDiagonal):
        # the SNCM algebra violation is also present, diagonal wins
        build_model(ModelClass.SNCM, [(loop, CIRCLE_CM)])


def test_build_model_accepts_string_class():
    model = build_model("sfcm", [(F_SQ, CIRCLE_CM)])
    assert model.model_class is ModelClass.SFCM


def test_a_model_parses_its_class():
    # a class given as its code is stored as the member; anything else is
    # a ParseError at construction, not when the model is run
    union = SpecialMatrix([(F_SQ, CIRCLE_CM)])
    labels, experts = (("a", "b", "c"),), ("e",)
    assert Model(" sfcm", union, labels, experts).model_class \
        is ModelClass.SFCM
    with pytest.raises(ParseError, match="unknown model class 5"):
        Model(5, union, labels, experts)
    equation = Model("SFRE", SpecialMatrix([(F_REL, MAXMIN_RM)]),
                     ((("d1", "d2"), ("r1", "r2", "r3")),), experts)
    with pytest.raises(WrongEntryPoint):
        run(equation, SpecialStateVector([(Scalar(1), Scalar(0))]))


def test_a_hand_built_model_is_checked_against_its_class():
    # a Model built without build_model skipped the class check: run
    # raised NonCMComponent for an SFCM union holding an RM component
    with pytest.raises(ClassViolation, match="^component 2: kind RM not "
                                             "allowed in SFCM"):
        Model(ModelClass.SFCM,
              SpecialMatrix([(F_SQ, CIRCLE_CM), (F_RECT, CIRCLE_RM)]),
              (("a", "b", "c"), (("p", "q"), ("x", "y", "z"))), ("e", "f"))


def test_a_hand_built_model_is_checked_for_a_zero_diagonal():
    # a Model built without build_model skipped the diagonal check, and
    # its nonzero diagonal ran
    loop = m([[1, 1, 0], [0, 0, 1], [1, 0, 0]], TRI)
    with pytest.raises(NonzeroDiagonal, match="^component 1: diagonal cell "
                                              r"\(1,1\) is 1, must be 0$"):
        Model(ModelClass.SFCM, SpecialMatrix([(loop, CIRCLE_CM)]),
              (("a", "b", "c"),), ("e",))


def test_default_labels_and_experts():
    model = build_model(ModelClass.SMFCFRM,
                        [(F_SQ, CIRCLE_CM), (F_RECT, CIRCLE_RM)])
    assert model.labels[0] == (("c1", "c2", "c3"),)
    assert model.labels[1] == (("d1", "d2"), ("r1", "r2", "r3"))
    assert model.experts == ("expert 1", "expert 2")


def test_custom_labels_checked_per_component():
    model = build_model(
        ModelClass.SMFCFRM, [(F_SQ, CIRCLE_CM), (F_RECT, CIRCLE_RM)],
        labels=[("a", "b", "c"), (("p", "q"), ("x", "y", "z"))],
        experts=["lead", "second"])
    assert model.labels[0] == (("a", "b", "c"),)
    assert model.labels[1] == (("p", "q"), ("x", "y", "z"))
    assert model.experts == ("lead", "second")
    with pytest.raises(ClassViolation):
        build_model(ModelClass.SFCM, [(F_SQ, CIRCLE_CM)],
                    labels=[("a", "b")])
    with pytest.raises(ClassViolation):
        build_model(ModelClass.SFCM, [(F_SQ, CIRCLE_CM)],
                    labels=[("a", "b", "c"), ("d", "e", "f")])


def test_run_dispatch_matches_bare_engine():
    model = build_model(ModelClass.SFCM, [(F_SQ, CIRCLE_CM)])
    x = SpecialStateVector([(Scalar(1), Scalar(0), Scalar(0))])
    assert run(model, x) == run_cm(model.matrix, x)


def test_run_refuses_relational_classes():
    model = build_model(ModelClass.SFRE, [(F_REL, MAXMIN_RM)])
    x = SpecialStateVector([(Scalar(1), Scalar(0))])
    with pytest.raises(WrongEntryPoint):
        run(model, x)


def test_validate_input_diagnostics():
    model = build_model(ModelClass.SMFCFRM,
                        [(F_SQ, CIRCLE_CM), (F_RECT, CIRCLE_RM)])
    ok = SpecialStateVector([(Scalar(1), Scalar(0), Scalar(0)),
                             (Scalar(0), Scalar(1))])
    assert validate_input(model.matrix, ok) == []
    short = SpecialStateVector([(Scalar(1), Scalar(0), Scalar(0))])
    assert "2 components" in validate_input(model.matrix, short)[0]
    wrong_len = SpecialStateVector([(Scalar(1), Scalar(0)),
                                    (Scalar(0), Scalar(1))])
    assert "component 1" in validate_input(model.matrix, wrong_len)[0]
    fuzzy_entry = SpecialStateVector([(Scalar(1), Scalar(0.4), Scalar(0)),
                                      (Scalar(0), Scalar(1))])
    problems = validate_input(model.matrix, fuzzy_entry)
    assert any("coordinate 2" in p for p in problems)


def test_validate_input_square_has_no_range_space():
    model = build_model(ModelClass.SFCM, [(F_SQ, CIRCLE_CM)])
    x = SpecialStateVector([(Scalar(1), Scalar(0), Scalar(0))],
                           side=RANGE_SIDE)
    problems = validate_input(model.matrix, x)
    assert any("no range space" in p for p in problems)
    with pytest.raises(InvalidInput):
        run(model, x)
    # the bare engine applies the same validator
    with pytest.raises(InvalidInput):
        run_cm(model.matrix, x)


def test_range_side_input_lengths_use_columns():
    model = build_model(ModelClass.SFRM, [(F_RECT, CIRCLE_RM)])
    x = SpecialStateVector([(Scalar(1), Scalar(0), Scalar(0))],
                           side=RANGE_SIDE)
    assert validate_input(model.matrix, x) == []
    pattern = run(model, x)
    assert pattern.side == RANGE_SIDE
