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


@pytest.fixture(scope="session")
def turnout_script():
    """``scripts/make_turnout_fixture.py``, the county fixture's builder, as a module."""
    spec = importlib.util.spec_from_file_location(
        "make_turnout_fixture", SCRIPT_DIR / "make_turnout_fixture.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
