"""Each fast path's oracle comparison sees every mutant of `FAST_PATH_MUTANTS`."""

from mutants import FAST_PATH_MUTANTS, MutantTimeout, alarm, recompiled


def test_fast_path_mutants_fail_their_oracle(monkeypatch):
    for path, fast in FAST_PATH_MUTANTS.items():
        assert not fast.differs(), f"{path} differs from its oracle"
        for label, (old, new) in fast.mutants.items():
            with monkeypatch.context() as m:
                m.setattr(fast.module, fast.attr, recompiled(fast.module, fast.attr, old, new))
                try:
                    with alarm(f"{path}: mutant {label}"):
                        caught = fast.differs()
                except MutantTimeout:  # the corpus holds a case on which it spins
                    caught = True
                assert caught, f"{path}: mutant {label} matches its oracle"
