"""Each fast path's oracle comparison sees every mutant of `MUTANTS` that
names it, and finds no mismatch in the live code."""

from mutants import MUTANTS, MutantTimeout, alarm


def test_mutants_fail_their_oracle(monkeypatch):
    guarded = {label: mutant for label, mutant in MUTANTS.items() if mutant.differs}
    for differs in dict.fromkeys(mutant.differs for mutant in guarded.values()):
        assert not differs(), f"the live code fails {differs.__name__}"
    for label, mutant in guarded.items():
        with monkeypatch.context() as m:
            m.setattr(mutant.module, mutant.attr, mutant.replacement())
            try:
                with alarm(label):
                    caught = mutant.differs()
            except MutantTimeout:  # the corpus holds a case on which it spins
                caught = True
            assert caught, f"{label} matches its oracle"
