import errno
import hashlib
import json
import os
import signal
import time

import pytest

from qkdlab import cli, core, mcsim
from qkdlab.core import (
    DetectorModel,
    LinkModel,
    ProtocolParams,
    SimulationSettings,
    save_config,
)

CONFIG_75 = os.path.join(os.path.dirname(__file__), "..", "configs", "reference_75km.conf")
CONFIG_PROJ = os.path.join(os.path.dirname(__file__), "..", "configs", "projection.conf")


@pytest.fixture()
def small_config(tmp_path):
    path = str(tmp_path / "qkd.conf")
    save_config(
        path,
        ProtocolParams(n_pulses=10**5),
        LinkModel(channel_loss_db=0.0),
        SimulationSettings(seed=3),
    )
    return path


# every config field with every non-finite value, but a loss of +inf: a
# blocked link is a valid config
_NON_FINITE = [
    pytest.param(section, key, value, id=f"{key}={value}")
    for section, keys in core._SECTIONS.items()
    for key in keys
    for value in ("nan", "inf", "-inf")
    if not (key.endswith("_loss_db") and value == "inf")
]


def _run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestKeyrate:
    def test_75km_reproduction(self, capsys):
        start = time.monotonic()
        rc, out, _ = _run(capsys, "--config", CONFIG_75, "keyrate", "--json")
        elapsed = time.monotonic() - start
        assert rc == cli.EXIT_OK
        payload = json.loads(out)
        assert 7320 * 0.75 <= payload["report"]["skr_bps"] <= 7320 * 1.25
        assert payload["config"]["protocol"]["mu"] == 0.56
        assert elapsed < 1.0

    def test_human_table(self, capsys):
        rc, out, _ = _run(capsys, "--config", CONFIG_75, "keyrate")
        assert rc == cli.EXIT_OK
        assert "skr_bps" in out

    def test_zero_key_exit_code(self, capsys):
        rc, out, _ = _run(capsys, "--config", CONFIG_75, "keyrate",
                          "--loss-db", "60", "--json")
        assert rc == cli.EXIT_ZERO_KEY
        assert json.loads(out)["report"]["l_bits"] == 0.0

    def test_missing_config_names_path(self, capsys):
        rc, _, err = _run(capsys, "--config", "/no/such/file.conf", "keyrate")
        assert rc == cli.EXIT_ERROR
        assert "/no/such/file.conf" in err

    @pytest.mark.parametrize("extra, named", [
        ("[detector]\ndark_prob_per_gat = 0.5\n", "[detector] dark_prob_per_gat"),
        ("[lnk]\nchannel_loss_db = 4.8\n", "[lnk]"),
        ("[detector]\nn_detectors = 2\n", "[detector] n_detectors"),
    ])
    def test_unknown_config_entry_is_an_error(self, capsys, tmp_path, extra, named):
        path = tmp_path / "typo.conf"
        path.write_text("[link]\nchannel_loss_db = 0.0\n" + extra)
        rc, out, err = _run(capsys, "--config", str(path), "keyrate", "--json")
        assert rc == cli.EXIT_ERROR
        assert out == ""
        assert named in err

    def test_distance_flag(self, capsys):
        rc_d, out_d, _ = _run(capsys, "--config", CONFIG_75, "keyrate",
                              "--distance-km", "25", "--json")
        rc_l, out_l, _ = _run(capsys, "--config", CONFIG_75, "keyrate",
                              "--loss-db", "4.8", "--json")
        assert rc_d == rc_l == cli.EXIT_OK
        assert out_d == out_l

    @pytest.mark.parametrize("dark", [0.0, 8e-6])
    def test_vacuum_decoy_refused(self, capsys, tmp_path, dark):
        path = str(tmp_path / "qkd.conf")
        det = DetectorModel(dark_prob_per_gate=dark)
        save_config(path, ProtocolParams(nu=0.0), LinkModel(detector=det), SimulationSettings())
        for argv in ((), ("--json",)):
            rc, out, err = _run(capsys, "--config", path, "keyrate", *argv)
            assert rc == cli.EXIT_ERROR
            assert out == ""
            assert err == "error: decoy intensity must be positive\n"

    def test_conflicting_flags_rejected(self, capsys):
        rc, _, err = _run(capsys, "--config", CONFIG_75, "keyrate",
                          "--loss-db", "5", "--distance-km", "20")
        assert rc == cli.EXIT_ERROR

    @pytest.mark.parametrize("section, key, value", _NON_FINITE)
    def test_non_finite_config_value_refused(self, capsys, tmp_path, section, key, value):
        path = tmp_path / "non_finite.conf"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        rc, out, err = _run(capsys, "--config", str(path), "keyrate", "--json")
        assert rc == cli.EXIT_ERROR
        assert out == ""
        assert err.startswith("error: ") and key in err

    @pytest.mark.parametrize("flag", ["--loss-db", "--distance-km"])
    def test_non_finite_loss_flag_refused(self, capsys, flag):
        rc, out, err = _run(capsys, "--config", CONFIG_75, "keyrate", flag, "nan")
        assert rc == cli.EXIT_ERROR
        assert err == "error: channel_loss_db=nan must be non-negative\n"

    def test_blocked_link_is_a_zero_key(self, capsys, tmp_path):
        path = tmp_path / "blocked.conf"
        path.write_text("[link]\nchannel_loss_db = inf\n")
        rc, out, _ = _run(capsys, "--config", str(path), "keyrate", "--json")
        assert rc == cli.EXIT_ZERO_KEY
        assert json.loads(out)["report"]["l_bits"] == 0.0


class TestSimulate:
    def test_seed_determinism_byte_identical(self, capsys, small_config):
        rc1, out1, _ = _run(capsys, "--config", small_config, "simulate", "--seed", "7")
        rc2, out2, _ = _run(capsys, "--config", small_config, "simulate", "--seed", "7")
        assert rc1 == rc2 == cli.EXIT_OK
        assert out1 == out2

    def test_counts_reported(self, capsys, small_config):
        rc, out, _ = _run(capsys, "--config", small_config, "simulate")
        payload = json.loads(out)
        assert payload["seed"] == 3
        assert payload["counts"]["n_z_mu"] > 0
        assert "ground_truth" in payload

    def test_zero_pulses_rejected(self, capsys, small_config):
        rc, _, err = _run(capsys, "--config", small_config, "simulate",
                          "--pulses", "0")
        assert rc == cli.EXIT_ERROR

    def test_bad_thread_count_is_an_error(self, capsys, small_config, monkeypatch):
        monkeypatch.setenv("QKD_THREADS", "many")
        rc, out, err = _run(capsys, "--config", small_config, "simulate")
        assert rc == cli.EXIT_ERROR
        assert out == ""
        assert err.startswith("error: QKD_THREADS='many'")

    def test_record_file_written(self, capsys, small_config, tmp_path):
        out_path = str(tmp_path / "rec.csv")
        rc, _, _ = _run(capsys, "--config", small_config, "simulate",
                        "--records", out_path)
        assert rc == cli.EXIT_OK
        with open(out_path) as fh:
            assert fh.readline().strip() == "gate_index,detector_id,is_dark"

    def test_failed_record_write_leaves_no_file(self, capsys, small_config, tmp_path,
                                                monkeypatch):
        # the disk fills up after the first block of rows
        blocks = []
        format_rows = mcsim._format_rows

        def disk_full(*args):
            if blocks:
                raise OSError(errno.ENOSPC, "No space left on device")
            blocks.append(1)
            return format_rows(*args)

        monkeypatch.setattr(mcsim, "_BLOCK_ROWS", 100)
        monkeypatch.setattr(mcsim, "_format_rows", disk_full)
        out_path = tmp_path / "rec.csv"
        rc, out, err = _run(capsys, "--config", small_config, "simulate",
                            "--records", str(out_path))
        assert rc == cli.EXIT_ERROR
        assert "No space left on device" in err
        assert blocks
        assert not out_path.exists()
        assert sorted(os.listdir(tmp_path)) == ["qkd.conf"]


class TestStability:
    def test_row_count_matches_schedule(self, capsys, small_config):
        # 0.5 h at the fixed 300 s interval = 6 windows
        rc, out, _ = _run(capsys, "--config", small_config, "stability",
                          "--hours", "0.5", "--pulses-per-window", "20000")
        assert rc == cli.EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "window_start_s,q_mu,q_nu,e_z,e_x"
        assert len(lines) == 1 + 6

    def test_bad_thread_count_is_an_error(self, capsys, small_config, monkeypatch):
        monkeypatch.setenv("QKD_THREADS", "0")
        rc, out, err = _run(capsys, "--config", small_config, "stability",
                            "--hours", "0.5", "--pulses-per-window", "1000")
        assert rc == cli.EXIT_ERROR
        assert out == ""
        assert err.startswith("error: QKD_THREADS='0'")

    def test_zero_hours_rejected(self, capsys, small_config):
        rc, _, err = _run(capsys, "--config", small_config, "stability",
                          "--hours", "0")
        assert rc == cli.EXIT_ERROR

    @pytest.mark.parametrize("hours", ["nan", "inf"])
    def test_non_finite_hours_rejected(self, capsys, small_config, hours):
        rc, out, err = _run(capsys, "--config", small_config, "stability", "--hours", hours)
        assert rc == cli.EXIT_ERROR
        assert err == "error: schedule durations must be positive and finite\n"

    def test_schedule_without_windows_is_an_error(self, capsys, small_config):
        # 0.01 h is 36 s, less than half of one 300 s interval
        rc, out, err = _run(capsys, "--config", small_config, "stability",
                            "--hours", "0.01")
        assert rc == cli.EXIT_ERROR
        assert out == ""
        assert err.startswith("error: ") and "holds no window" in err


class TestScan:
    def test_three_losses_decreasing(self, capsys):
        rc, out, _ = _run(capsys, "--config", CONFIG_75, "scan",
                          "--losses", "4.8,9.6,14.6")
        assert rc == cli.EXIT_OK
        lines = out.strip().split("\n")
        assert len(lines) == 4
        col = lines[0].split(",").index("skr_bps")
        skrs = [float(line.split(",")[col]) for line in lines[1:]]
        assert skrs[0] > skrs[1] > skrs[2] > 0

    def test_range_syntax(self, capsys):
        rc, out, _ = _run(capsys, "--config", CONFIG_75, "scan",
                          "--losses", "5:15:5")
        lines = out.strip().split("\n")
        assert [float(line.split(",")[0]) for line in lines[1:]] == [5.0, 10.0, 15.0]

    def test_optimized_row_equals_optimize(self, capsys):
        # scan --optimize searches from the config, as optimize does: same
        # f_rep, n_pulses, f_ec and epsilons, so the same row
        rc_s, out_s, _ = _run(capsys, "--config", CONFIG_PROJ, "scan",
                              "--losses", "9.6", "--optimize", "--free-p-z")
        rc_o, out_o, _ = _run(capsys, "--config", CONFIG_PROJ, "optimize",
                              "--loss-db", "9.6", "--free-p-z")
        assert rc_s == rc_o == cli.EXIT_OK
        assert out_s == out_o
        assert len(out_s.strip().split("\n")) == 2

    def test_infeasible_rows_report_config(self, capsys):
        rc, out, _ = _run(capsys, "--config", CONFIG_PROJ, "scan",
                          "--losses", "60", "--optimize")
        assert rc == cli.EXIT_OK
        header, row = out.strip().split("\n")
        fields = dict(zip(header.split(","), row.split(",")))
        assert (fields["mu"], fields["nu"], fields["p_mu"], fields["p_z"]) == ("0.5", "0.22", "0.8", "0.9")
        assert fields["l_bits"] == "0"

    def test_malformed_range_rejected(self, capsys):
        rc, _, err = _run(capsys, "--config", CONFIG_75, "scan",
                          "--losses", "10:1:banana")
        assert rc == cli.EXIT_ERROR
        assert "malformed" in err

    @pytest.mark.parametrize("losses", ["1:inf:1", "-inf:1:1", "1:nan:1", "1:5:inf", "nan:5:1"])
    def test_non_finite_range_rejected(self, capsys, losses):
        # an infinite range once looped forever: fail instead of hanging
        signal.signal(signal.SIGALRM, lambda *_: pytest.fail("range did not end"))
        signal.alarm(10)
        try:
            rc, out, err = _run(capsys, "--config", CONFIG_75, "scan", f"--losses={losses}")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        assert rc == cli.EXIT_ERROR
        assert out == ""
        assert err.startswith("error: malformed loss range")

    @pytest.mark.parametrize("losses", ["-1,2", "nan"])
    def test_invalid_loss_is_an_error(self, capsys, losses):
        rc, out, err = _run(capsys, "--config", CONFIG_75, "scan", f"--losses={losses}")
        assert rc == cli.EXIT_ERROR
        assert out == ""
        assert err.startswith("error: channel_loss_db=")

    def test_infinite_loss_in_a_list_is_a_blocked_link(self, capsys):
        rc, out, _ = _run(capsys, "--config", CONFIG_75, "scan", "--losses", "1,inf")
        assert rc == cli.EXIT_OK
        header, first, blocked = out.strip().split("\n")
        fields = dict(zip(header.split(","), blocked.split(",")))
        assert (fields["loss_db"], fields["l_bits"]) == ("inf", "0")
        assert float(dict(zip(header.split(","), first.split(",")))["l_bits"]) > 0


class TestOptimize:
    def test_emits_single_csv_row(self, capsys):
        rc, out, _ = _run(capsys, "--config", CONFIG_75, "optimize")
        assert rc == cli.EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0].startswith("loss_db,")
        assert len(lines) == 2


CONFIG_B2B = os.path.join(os.path.dirname(__file__), "..", "configs", "back_to_back.conf")

# SHA-256 of the stdout of each command, frozen before the tallies became
# (basis, intensity) arrays (scan-free-p-z: before optimize scored only the
# scorable (mu, nu) pairs): any change to a report's numbers, key order or
# formatting changes a digest.
GOLDEN_OUTPUT_SHA256 = {
    ("keyrate", CONFIG_75): "beeb06091cdd5760ea43599e7d6f829279993581ab11734d363b931b50a8d277",
    ("keyrate", CONFIG_B2B): "11892442900c12ad47e958fc05067bc62ded8b9229775345b6f96719293b907f",
    ("keyrate", CONFIG_PROJ): "afebe0df9d8f3ce34800450923f756b8998350bdfc4a62f3be8db8ca576eb242",
    ("scan", CONFIG_PROJ): "68e757ddfc3da89b7ce3e2ba4aa1c5a4e486871876492d5cc28b2db8592415f0",
    ("scan-free-p-z", CONFIG_PROJ): "02e676dd20e781b1b77ac63178127877b4e0349614705aea1b1ed84c2948a25f",
    ("simulate", CONFIG_B2B): "23299ba01971ed1850eb47ffa07df4e31896ab33a5c398e47ae2d7c7ff935a88",
}
# each case's command line after --config
_GOLDEN_ARGS = {
    "keyrate": ("keyrate", "--json"),
    "scan": ("scan", "--losses", "1:45:4", "--optimize"),
    # the projection benchmark's scan, at every fourth loss
    "scan-free-p-z": ("scan", "--losses", "1:45:4", "--optimize", "--free-p-z"),
    "simulate": ("simulate", "--pulses", "131072"),
}


@pytest.mark.parametrize("case, config", list(GOLDEN_OUTPUT_SHA256),
                         ids=lambda v: os.path.basename(v).removesuffix(".conf"))
def test_golden_output(capsys, case, config):
    rc, out, _ = _run(capsys, "--config", config, *_GOLDEN_ARGS[case])
    assert rc == cli.EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_OUTPUT_SHA256[case, config]
