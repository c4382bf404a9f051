import json
from collections import Counter
from dataclasses import asdict, fields

import numpy as np
import pytest

import diafact.cli as cli
from diafact.bench import (
    ExperimentConfig,
    ResultRow,
    emit_report,
    preconditioner_density,
    run_experiment,
)
from diafact.sparse import SparseMatrix, write_matrix_market

from helpers import random_sparse


@pytest.fixture
def identity_mtx(tmp_path):
    path = tmp_path / "eye.mtx"
    write_matrix_market(SparseMatrix.identity(12), path)
    return str(path)


@pytest.fixture
def synthetic_mtx(tmp_path):
    rng = np.random.default_rng(42)
    a = random_sparse(rng, 60, density=0.08)
    path = tmp_path / "synth.mtx"
    write_matrix_market(a, path)
    return str(path)


class TestConfig:
    def test_defaults_match_protocol(self):
        cfg = ExperimentConfig(matrix="x.mtx")
        assert cfg.neumann_k == 3
        assert cfg.tau_i == 0.1
        assert (cfg.p_i, cfg.tau_l, cfg.p_l) == (0, 0.0, 0)
        assert cfg.tol == 1e-8 and cfg.maxit == 1000

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(matrix="x", method="lu")
        with pytest.raises(ValueError):
            ExperimentConfig(matrix="x", tau_i=2.0)
        with pytest.raises(ValueError):
            ExperimentConfig(matrix="x", maxit=0)


class TestRunExperiment:
    def test_identity_matrix(self, identity_mtx):
        row = run_experiment(ExperimentConfig(matrix=identity_mtx))
        assert row.status == "converged"
        assert row.its <= 1
        assert row.nrm == pytest.approx(0.0, abs=1e-14)
        assert row.rho <= 3.0
        assert row.solution_error <= 1e-12

    def test_synthetic_converges_all_methods(self, synthetic_mtx):
        for method in ("diaf-q", "diaf-s"):
            for v_shape in ("block-diag", "block-upper"):
                cfg = ExperimentConfig(
                    matrix=synthetic_mtx, method=method, v_shape=v_shape, max_block=15
                )
                row = run_experiment(cfg)
                assert row.status == "converged", (method, v_shape, row.error_message)
                assert row.solution_error <= 1e-4

    def test_kv_selection_route(self, synthetic_mtx):
        cfg = ExperimentConfig(matrix=synthetic_mtx, k_v=5, max_block=15)
        row = run_experiment(cfg)
        assert row.status == "converged"
        assert row.max_block <= 15

    def test_determinism(self, synthetic_mtx):
        cfg = ExperimentConfig(matrix=synthetic_mtx, max_block=20)
        a = asdict(run_experiment(cfg))
        b = asdict(run_experiment(cfg))
        a.pop("timings")
        b.pop("timings")
        assert a == b

    def test_missing_file_reports_stage(self):
        row = run_experiment(ExperimentConfig(matrix="/nonexistent/a.mtx"))
        assert row.status == "error"
        assert row.error_stage == "read"
        assert row.timings["read"] >= 0.0  # the failing stage is timed too

    def test_structurally_singular_matrix_stops_in_transversal(self, tmp_path):
        # columns 0 and 1 both reach row 0 alone; no column is empty
        a = SparseMatrix.from_dense([[1.0, 2.0, 0.0], [0.0, 0.0, 3.0], [0.0, 0.0, 4.0]])
        path = tmp_path / "singular.mtx"
        write_matrix_market(a, path)
        row = run_experiment(ExperimentConfig(matrix=str(path)))
        assert row.status == "error"
        assert row.error_stage == "transversal"
        assert row.error_message.startswith("StructuralSingularityError")
        assert "transversal" in row.timings

    def test_rho_matches_recomputation(self, synthetic_mtx):
        from diafact.factor import diaf_q
        from diafact.krylov import factor_v
        from diafact.patterns import NeumannConfig, DropRule, neumann_pattern
        from diafact.preprocess import (
            equilibrate,
            max_transversal,
            scc_block_structure,
            block_pattern,
        )
        from diafact.sparse import SubspacePattern, read_matrix_market

        cfg = ExperimentConfig(matrix=synthetic_mtx, max_block=15)
        row = run_experiment(cfg)

        a0 = read_matrix_market(synthetic_mtx)
        q = max_transversal(a0)
        a1 = a0.permuted_columns(q.forward)
        s = equilibrate(a1)
        a2 = a1.scaled(s.row_scale, s.col_scale)
        p, blocks = scc_block_structure(a2, cfg.max_block)
        a3 = a2.permuted_symmetric(p.forward)
        w_pat = neumann_pattern(
            a3, SubspacePattern.diagonal(60),
            NeumannConfig(3, DropRule(0.1, 0), DropRule()),
        )
        candidate = block_pattern(blocks, "block-diagonal")
        v_pat = candidate.intersected(SubspacePattern.from_matrix(a3)).with_diagonal()
        pair = diaf_q(a3, w_pat, v_pat)
        vf = factor_v(pair.v, blocks, "block-diagonal")
        assert row.rho == pytest.approx(preconditioner_density(pair.w, vf, a0.nnz))
        assert row.column_residual_max == pytest.approx(pair.column_residuals.max())
        assert row.column_residual_p99 == pytest.approx(np.percentile(pair.column_residuals, 99))
        assert row.column_residual_max >= row.column_residual_p99 > 0.0
        assert row.min_abs_v_diag == pytest.approx(np.abs(np.diag(pair.v.to_dense())).min())
        assert row.residual_gap is False
        assert row.nrm == pytest.approx(pair.nrm)


class TestEmitReport:
    def rows(self):
        return [
            ResultRow(problem="p1", n=3, nnz=5, rho=1.5, its=7, status="converged",
                      timings={"read": 0.1}),
            ResultRow(problem="p2", n=4, nnz=6, its=1000, status="no_convergence"),
            ResultRow(problem="p3", n=4, nnz=6, its=12, status="breakdown"),
        ]

    def test_csv_header_and_lines(self, tmp_path):
        out = tmp_path / "r.csv"
        text = emit_report(self.rows()[:1], "csv", out)
        lines = text.strip().splitlines()
        assert lines[0].startswith("problem,n,nnz,")
        header = lines[0].split(",")
        for name in ("true_relative_residual", "flagged_columns", "residual_gap",
                     "column_residual_max", "column_residual_p99", "min_abs_v_diag"):
            assert name in header
        assert len(lines) == 2
        assert out.read_text() == text

    def test_status_names_serialized(self):
        text = emit_report(self.rows(), "csv")
        assert "no_convergence" in text and "breakdown" in text

    def test_json_roundtrip(self, identity_mtx):
        row = run_experiment(ExperimentConfig(matrix=identity_mtx))
        text = emit_report([row], "json")
        back = json.loads(text)
        assert back[0] == asdict(row)
        assert row.status == "converged"
        assert 0.0 <= back[0]["true_relative_residual"] <= 1e-8
        assert back[0]["flagged_columns"] == 0
        assert back[0]["residual_gap"] is False
        assert back[0]["column_residual_max"] == back[0]["column_residual_p99"] == 0.0
        assert back[0]["min_abs_v_diag"] == 1.0
        assert back[0]["config"]["matrix"] == identity_mtx

    def test_json_failed_row_has_no_bare_nan(self, tmp_path):
        row = run_experiment(ExperimentConfig(matrix=str(tmp_path / "missing.mtx")))
        assert row.status == "error" and np.isnan(row.rho)

        def reject(name):
            raise ValueError(f"bare {name} in JSON report")

        back = json.loads(emit_report([row], "json"), parse_constant=reject)
        for name in ("rho", "kappa_v", "nrm", "true_relative_residual", "solution_error"):
            assert back[0][name] is None, name

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            emit_report([], "csv")


class TestCli:
    def test_converged_exit_zero(self, identity_mtx, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = cli.main(["--matrix", identity_mtx, "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "status=converged" in capsys.readouterr().out

    def test_error_exit_one(self, tmp_path, capsys):
        code = cli.main(["--matrix", str(tmp_path / "missing.mtx")])
        assert code == 1

    def test_one_flag_per_config_field(self):
        dests = Counter(a.dest for a in cli.build_parser()._actions)
        for f in fields(ExperimentConfig):
            assert dests[f.name] == 1, f.name
        args = vars(cli.build_parser().parse_args(["--matrix", "x", "--kv", "4"]))
        assert args == {"matrix": ["x"], "k_v": 4, "out": None, "format": "csv"}

    def test_matrix_alone_gives_default_config(self, monkeypatch):
        seen = []

        def fake_run(cfg):
            seen.append(cfg)
            return ResultRow(problem="x", status="converged")

        monkeypatch.setattr(cli, "run_experiment", fake_run)
        assert cli.main(["--matrix", "x"]) == 0
        assert seen == [ExperimentConfig(matrix="x")]

    def test_json_to_stdout(self, identity_mtx, capsys):
        code = cli.main(["--matrix", identity_mtx, "--format", "json"])
        assert code == 0
        captured = capsys.readouterr().out
        assert '"problem": "eye"' in captured


def _malformed(rng, kind):
    """A small Matrix Market text broken in one way, with the stage and the
    message fragment its run must end with."""
    n = int(rng.integers(2, 7))
    dense = np.diag(rng.uniform(1.0, 2.0, n)) + rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
    rows, cols = np.nonzero(dense)
    entries = [[int(i) + 1, int(j) + 1, repr(float(dense[i, j]))] for i, j in zip(rows, cols)]
    banner, size = "%%MatrixMarket matrix coordinate real general", f"{n} {n} {len(entries)}"
    e = int(rng.integers(len(entries)))
    if kind == "truncated entry":
        entries[e] = entries[e][:2]
        expect = "read", "malformed entry"
    elif kind in ("index 0", "index above n"):
        entries[e][int(rng.integers(2))] = 0 if kind == "index 0" else n + 1
        expect = "read", "index out of range"
    elif kind == "extra field":
        entries[e].append("7.5")
        expect = "read", f":{e + 3}: malformed entry: expected row, column and real value"
    elif kind == "upper entry in symmetric":
        banner = banner.replace("general", "symmetric")
        entries = [entry for entry in entries if entry[0] >= entry[1]]
        e %= len(entries)
        entries.insert(e, [1, 2, "3.0"])
        size = f"{n} {n} {len(entries)}"
        expect = "read", f":{e + 3}: entry above the diagonal (symmetric)"
    elif kind == "fraction in integer":
        banner = banner.replace("real", "integer")
        entries = [[i, j, "3"] for i, j, _ in entries]
        entries[e][2] = "2.5"
        expect = "read", f":{e + 3}: malformed entry: expected row, column and integer value"
    elif kind == "skew-symmetric":
        banner = banner.replace("general", "skew-symmetric")
        expect = "read", "unsupported symmetry 'skew-symmetric'"
    elif kind == "pattern":
        banner = banner.replace("real", "pattern")
        expect = "read", "unsupported field 'pattern'"
    elif kind == "array":
        banner, size = banner.replace("coordinate", "array"), f"{n} {n}"
        entries = [[repr(float(x))] for x in dense.T.ravel()]
        expect = "read", "only coordinate matrices are supported"
    elif kind == "empty file":
        return "", ("read", "missing MatrixMarket banner")
    elif kind == "banner only":
        return banner + "\n", ("read", "missing size line")
    elif kind == "n=1":
        size, entries = "1 1 1", [[1, 1, "0.0"]]
        expect = "transversal", "column 0 is empty"
    elif kind == "cancelling duplicates":
        c = int(cols[e])
        entries += [[i, j, repr(-float(v))] for i, j, v in entries if j == c + 1]
        size = f"{n} {n} {len(entries)}"
        expect = "transversal", f"column {c} is empty"
    elif kind == "zero row":
        r = int(rows[e])
        entries += [[i, j, repr(-float(v))] for i, j, v in entries if i == r + 1]
        size = f"{n} {n} {len(entries)}"
        expect = "transversal", "structurally singular matrix"
    elif kind == "zero size":
        size, entries = "0 0 0", []
        expect = "read", "the matrix is empty (0 x 0)"
    elif kind == "huge declared count":
        size = f"{n} {n} 99999999999"
        expect = "read", f"declared 99999999999 entries, found {len(entries)}"
    lines = [banner, size] + [" ".join(map(str, entry)) for entry in entries]
    return "\n".join(lines) + "\n", expect


class TestMalformedInputs:
    KINDS = ("truncated entry", "index 0", "index above n", "extra field",
             "upper entry in symmetric", "fraction in integer", "skew-symmetric", "pattern",
             "array", "empty file", "banner only", "n=1", "cancelling duplicates", "zero row",
             "zero size", "huge declared count")

    def test_each_ends_in_a_named_stage_with_exit_one(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        for draw in range(3):
            for kind in self.KINDS:
                text, (stage, fragment) = _malformed(rng, kind)
                path = tmp_path / f"draw{draw}.mtx"
                path.write_text(text)
                messages = []
                for _ in range(2):
                    assert cli.main(["--matrix", str(path)]) == 1, kind
                    messages.append(capsys.readouterr().err)
                assert messages[0] == messages[1], kind
                assert f"failed in stage '{stage}'" in messages[0], (kind, messages[0])
                assert fragment in messages[0], (kind, messages[0])

    def test_one_by_one_matrix_converges(self, tmp_path, capsys):
        path = tmp_path / "one.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 -3.5\n")
        assert cli.main(["--matrix", str(path)]) == 0
        assert "status=converged" in capsys.readouterr().out
