"""The runner's one knob table: validation, derived views, and its guard.

* every knob validates loudly (``ConfigError`` naming the variable);
* ``snapshot()`` is exactly the report's ``meta.config`` and ``pins()``
  exactly what cache keys and journal headers carry;
* ``REPRO_*`` names the table does not list are ignored;
* no module besides ``runner/config.py`` and ``graphs/backend.py`` reads a
  ``REPRO_*`` environment variable.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.core.errors import ConfigError
from repro.graphs import backend
from repro.runner import config
from repro.runner import journal as journal_mod
from repro.runner.cli import main
from repro.runner.spec import ScenarioSpec

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The only modules allowed to read a ``REPRO_*`` environment variable.
READERS = {"runner/config.py", "graphs/backend.py"}

KNOB_VARS = ("REPRO_GRAPH_BACKEND", "REPRO_PATH_WORKERS", "REPRO_TASK_TIMEOUT")


@pytest.fixture(autouse=True)
def _no_knobs(monkeypatch):
    for var in KNOB_VARS:
        monkeypatch.delenv(var, raising=False)


class TestValidation:
    def test_path_workers_env_validation(self, monkeypatch):
        assert config.value("path_workers") == 1
        monkeypatch.setenv("REPRO_PATH_WORKERS", "3")
        assert config.value("path_workers") == 3
        for bad in ("0", "-2", "two", "1.5"):
            monkeypatch.setenv("REPRO_PATH_WORKERS", bad)
            with pytest.raises(ConfigError, match="REPRO_PATH_WORKERS"):
                config.value("path_workers")

    @pytest.mark.parametrize(
        "var, value",
        [
            ("REPRO_TASK_TIMEOUT", "-1"),
            ("REPRO_TASK_TIMEOUT", "soon"),
        ],
    )
    def test_invalid_task_timeout_raises_config_error(self, var, value, monkeypatch):
        monkeypatch.setenv(var, value)
        with pytest.raises(ConfigError, match=var):
            config.value("task_timeout")

    def test_unlisted_repro_names_are_ignored(self, monkeypatch):
        """Retired knobs a caller still exports change nothing."""
        monkeypatch.setenv("REPRO_BFS_BATCH", "not-a-width")
        monkeypatch.setenv("REPRO_FORCE_POPCOUNT_LUT", "1")
        monkeypatch.setenv("REPRO_NO_SUCH_KNOB", "x")
        assert list(config.snapshot()) == [knob.name for knob in config.KNOBS]
        assert config.pins() == {"graph_backend": "auto"}


class TestDerivedViews:
    @pytest.mark.parametrize("policy", ["python", "fast", "auto"])
    def test_pins_follow_the_backend_policy(self, policy):
        """The one pin list holds the backend policy, header and all."""
        with backend.using(policy):
            assert config.pins() == {"graph_backend": policy}
            header = journal_mod.journal_header(
                ScenarioSpec(name="fig3-walkthrough"), "1", 1
            )
            assert header["graph_backend"] == policy

    def test_backend_use_wins_over_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_BACKEND", "fast")
        with backend.using("python"):
            assert config.value("graph_backend") == "python"
        assert config.value("graph_backend") == "fast"

    def test_pins_are_what_key_material_and_the_header_carry(self, tmp_path):
        spec = ScenarioSpec(name="fig3-walkthrough", seed=3)
        unit = spec.work_units()[0]
        identity = {"journal", "scenario", "version", "spec_hash", "seed",
                    "trials", "units"}
        with backend.using("python"):
            pins = config.pins()
            lines = unit.key_material("1").split("\n")
            assert lines[5:] == [f"{name}={value}" for name, value in pins.items()]
            header = journal_mod.journal_header(spec, "1", 1)
            assert {k: v for k, v in header.items() if k not in identity} == pins
            path = tmp_path / "j.jsonl"
            journal = journal_mod.CampaignJournal(path)
            journal.open(header)
            journal.close()
            summary = journal_mod.inspect(path)
        assert summary["environment"] == pins
        assert summary["environment_mismatches"] == []

    def test_snapshot_is_the_reports_meta_config(self, tmp_path, capsys, monkeypatch):
        from repro.obs.report import load_report

        monkeypatch.setenv("REPRO_PATH_WORKERS", "2")
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "30")
        report_path = tmp_path / "obs.json"
        assert main([
            "run", "fig3-walkthrough", "--quiet", "--no-cache",
            "--telemetry", str(report_path),
        ]) == 0
        capsys.readouterr()
        meta_config = load_report(report_path)["meta"]["config"]
        assert list(meta_config) == list(config.snapshot())
        assert meta_config == {
            "graph_backend": "auto",
            "path_workers": 2,
            "task_timeout": 30.0,
        }


# ----------------------------------------------------------------------
# Guard: the table is the only reader of REPRO_* variables
# ----------------------------------------------------------------------
def _is_environ(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "environ"
    return isinstance(node, ast.Name) and node.id == "environ"


def _is_getenv(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    return name == "getenv"


def _env_reads(tree: ast.AST):
    """``(line, name)`` for every environment read in ``tree``.

    ``name`` is the variable read when it is a literal or a module-level
    string constant, else ``None`` (a computed name, or the whole
    environment at once).
    """
    parents = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    constants = {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        for target in node.targets
        if isinstance(target, ast.Name)
    }

    def name_of(key):
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            return key.value
        if isinstance(key, ast.Name):
            return constants.get(key.id)
        return None

    for node in ast.walk(tree):
        if _is_getenv(node):
            yield node.lineno, name_of(node.args[0] if node.args else None)
        elif _is_environ(node):
            parent = parents.get(node)
            key = None
            if isinstance(parent, ast.Subscript):
                key = parent.slice
            elif isinstance(parent, ast.Compare):
                key = parent.left
            elif isinstance(parent, ast.Attribute) and parent.attr in (
                "get", "pop", "setdefault"
            ):
                call = parents.get(parent)
                if isinstance(call, ast.Call) and call.args:
                    key = call.args[0]
            yield node.lineno, name_of(key)


def _repro_reads(source: str):
    return sorted(
        ((line, key) for line, key in _env_reads(ast.parse(source))
         if key is None or key.startswith("REPRO_")),
        key=lambda read: read[0],
    )


class TestOnlyTheTableReadsTheEnvironment:
    def test_scanner_sees_every_read_shape(self):
        source = (
            "import os\n"
            "from os import environ, getenv\n"
            "VAR = 'REPRO_X'\n"
            "os.environ.get('REPRO_A')\n"
            "os.environ['REPRO_B']\n"
            "os.getenv(VAR)\n"
            "'REPRO_C' in environ\n"
            "getenv('HOME')\n"
            "os.environ.get(name)\n"
            "dict(os.environ)\n"
        )
        assert _repro_reads(source) == [
            (4, "REPRO_A"), (5, "REPRO_B"), (6, "REPRO_X"), (7, "REPRO_C"),
            (9, None), (10, None),
        ]

    def test_no_module_outside_the_table_reads_a_repro_variable(self):
        offenders = {}
        readers = set()
        for path in sorted(SRC.rglob("*.py")):
            relative = path.relative_to(SRC).as_posix()
            reads = _repro_reads(path.read_text(encoding="utf-8"))
            if reads and relative in READERS:
                readers.add(relative)
            elif reads:
                offenders[relative] = reads
        assert offenders == {}
        # The scan is not vacuous: it sees the two modules that do read.
        assert readers == READERS
