import math

from gsteady import verify


def test_rows_pass_exactly_when_margin_nonnegative():
    rows = verify.run_suite("all")
    names = {name for name, _, _ in rows}
    assert len(rows) == len(names) == 57
    # The bound ell_gamma[e_lam] <= lam^gamma ell_gamma[e] on both laws with
    # a small-impact term.
    assert {"ell_gamma_rescale[power_law]",
            "ell_gamma_rescale[viscoelastic]"} <= names
    for name, margin, passed in rows:
        assert isinstance(margin, float)
        assert passed is (margin >= 0.0), name
        assert passed, name
    assert verify._row("tie", 0.0) == ("tie", 0.0, True)
    assert verify._row("below", -1e-300)[2] is False
    assert verify._row("nan", math.nan)[2] is False


def test_energy_loss_margin_is_the_least_loss(monkeypatch):
    """A negative loss must show as a failing row with a negative margin."""
    monkeypatch.setattr(verify, "energy_loss", lambda *args: -1e-3)
    rows = {name: (margin, passed)
            for name, margin, passed in verify.check_kinematics()}
    assert rows["energy_loss_nonnegative"] == (-1e-3, False)
    assert rows["momentum_conservation"][1]
