import importlib.util
import pathlib

import pytest

DATA_DIR = pathlib.Path(__file__).parent / "data"
SCENARIO_DIR = pathlib.Path(__file__).parent.parent / "scenarios"
SCRIPT_DIR = pathlib.Path(__file__).parent.parent / "scripts"


@pytest.fixture(scope="session")
def data_dir() -> pathlib.Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def scenario_dir() -> pathlib.Path:
    return SCENARIO_DIR


@pytest.fixture
def pool_forced(monkeypatch):
    """The simulator starts its process pool at any work: a run with more
    than one worker and more than one chunk goes to worker processes."""
    from bmdlimits import simulate

    monkeypatch.setattr(simulate, "POOL_MIN_DRAWS", 0)


#: Ways to read a parallel-testing block other than the shipped one, as
#: (``simulate._JUMP_DRAWS``, the mass of every trigger array).  A
#: ``_JUMP_DRAWS`` of 0 reads every kept cell by a jump and 2**62 none; a
#: mass just below 1 has the flips read in full first (below a flip
#: probability of 1), the least positive double the first trigger array.
READ_REGIMES = {
    "jumps-flips-drive": (0, 1.0 - 2.0**-53),
    "jumps-trigger-drives": (0, 5e-324),
    "full-reads-flips-drive": (2**62, 1.0 - 2.0**-53),
    "full-reads-trigger-drives": (2**62, 5e-324),
}


@pytest.fixture(params=list(READ_REGIMES))
def read_regime(request, monkeypatch) -> str:
    """The simulator reads every parallel-testing block one way of
    ``READ_REGIMES``, in this process and in the worker processes it forks.
    Returns the Python lines that set the same way in a fresh process that
    has imported ``bmdlimits.simulate`` as ``simulate``."""
    from bmdlimits import simulate

    jump_draws, trigger_mass = READ_REGIMES[request.param]
    monkeypatch.setattr(simulate, "_JUMP_DRAWS", jump_draws)
    monkeypatch.setattr(simulate, "_run_mass", lambda ends: trigger_mass)
    return (
        f"simulate._JUMP_DRAWS = {jump_draws!r}\n"
        f"simulate._run_mass = lambda ends: {trigger_mass!r}\n"
    )


@pytest.fixture(scope="session")
def turnout_script():
    """``scripts/make_turnout_fixture.py``, the county fixture's builder, as a module."""
    spec = importlib.util.spec_from_file_location(
        "make_turnout_fixture", SCRIPT_DIR / "make_turnout_fixture.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
