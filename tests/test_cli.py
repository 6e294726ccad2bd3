from __future__ import annotations

import filecmp
import os

import pytest
import yaml

from ewansim.cli import main
from ewansim.scenario import ScenarioError, load_scenario, save_scenario

from helpers import flat_scenario


def gen(tmp_path, name, *extra) -> str:
    out = str(tmp_path / name)
    argv = ["scenario", "gen", "--seed", "7", "--out", out, *extra]
    assert main(argv) == 0
    return os.path.join(out, "scenario.yaml")


class TestScenarioGen:
    @pytest.mark.parametrize("kind", ("ob", "bn", "fh", "mh"))
    def test_generates_loadable_scenarios(self, tmp_path, kind, capsys):
        path = gen(tmp_path, kind, "--kind", kind)
        assert capsys.readouterr().out.strip() == path
        sc = load_scenario(path)
        assert sc.kind == kind
        assert sc.trace_gen is not None

    def test_same_seed_writes_identical_bytes(self, tmp_path):
        a = gen(tmp_path, "a", "--kind", "mh", "--rho", "0.95")
        b = gen(tmp_path, "b", "--kind", "mh", "--rho", "0.95")
        assert filecmp.cmp(a, b, shallow=False)

    def test_different_seeds_differ(self, tmp_path):
        a = gen(tmp_path, "a", "--kind", "mh")
        out = str(tmp_path / "b")
        assert main(["scenario", "gen", "--kind", "mh", "--seed", "8",
                     "--out", out]) == 0
        assert not filecmp.cmp(a, os.path.join(out, "scenario.yaml"),
                               shallow=False)

    def test_case_study_kind(self, tmp_path):
        path = gen(tmp_path, "case", "--kind", "case-study")
        sc = load_scenario(path)
        assert sc.n_nodes == 2
        assert sc.traces is not None

    def test_fixed_traces_flag_materializes_csv_files(self, tmp_path):
        path = gen(tmp_path, "fixed", "--kind", "fh", "--days", "2",
                   "--fixed-traces")
        sc = load_scenario(path)
        assert sc.trace_gen is None
        assert set(sc.traces) == set(range(1, sc.n_nodes + 1))
        assert os.path.exists(
            os.path.join(tmp_path, "fixed", "traces", "node01.csv"))

    def test_special_deep_outside_mh_fails_cleanly(self, tmp_path, capsys):
        out = str(tmp_path / "bad")
        code = main(["scenario", "gen", "--kind", "ob", "--seed", "7",
                     "--special-deep", "--out", out])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_out_dir_env_var_is_honored(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("EWANSIM_OUT", str(tmp_path / "envout"))
        assert main(["scenario", "gen", "--kind", "fh", "--seed", "7"]) == 0
        printed = capsys.readouterr().out.strip()
        assert printed.startswith(str(tmp_path / "envout"))
        assert os.path.exists(printed)


class TestRunCommand:
    def test_run_emits_the_three_outputs(self, tmp_path, capsys):
        save_scenario(flat_scenario(2), str(tmp_path / "sc"))
        out = str(tmp_path / "out")
        code = main(["run", "--scenario", str(tmp_path / "sc"),
                     "--protocol", "ewan", "--seed", "11", "--out", out])
        assert code == 0
        for name in ("metrics.csv", "rounds.csv", "events.log"):
            assert os.path.exists(os.path.join(out, name))
        assert "packets delivered" in capsys.readouterr().out

    def test_missing_scenario_fails_cleanly(self, tmp_path, capsys):
        code = main(["run", "--scenario", str(tmp_path / "nope"),
                     "--protocol", "ewan", "--seed", "1",
                     "--out", str(tmp_path)])
        assert code == 1
        assert "no such scenario" in capsys.readouterr().err


class TestCampaignCommand:
    def test_campaign_emits_aggregates(self, tmp_path, capsys):
        save_scenario(flat_scenario(2), str(tmp_path / "sc"))
        out = str(tmp_path / "camp")
        code = main(["campaign", "--scenario-template", str(tmp_path / "sc"),
                     "--protocols", "ewan,single_hop", "--runs", "2",
                     "--seed", "9", "--out", out])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed == [os.path.join(out, "aggregate.csv"),
                           os.path.join(out, "pernode.csv")]
        for p in printed:
            assert os.path.exists(p)

    def test_repeat_with_equal_seed_is_byte_identical(self, tmp_path):
        save_scenario(flat_scenario(2), str(tmp_path / "sc"))
        argv = ["campaign", "--scenario-template", str(tmp_path / "sc"),
                "--protocols", "ewan", "--runs", "2", "--seed", "9", "--out"]
        assert main(argv + [str(tmp_path / "a")]) == 0
        assert main(argv + [str(tmp_path / "b")]) == 0
        for name in ("aggregate.csv", "pernode.csv"):
            assert filecmp.cmp(str(tmp_path / "a" / name),
                               str(tmp_path / "b" / name), shallow=False)

    def test_progress_goes_to_stderr_once_per_run(self, tmp_path, capsys):
        save_scenario(flat_scenario(1), str(tmp_path / "sc"))
        out = str(tmp_path / "camp")
        code = main(["campaign", "--scenario-template", str(tmp_path / "sc"),
                     "--protocols", "ewan,single_hop", "--runs", "3",
                     "--seed", "9", "--out", out])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "run 1/3 done", "run 2/3 done", "run 3/3 done"]
        assert captured.out.splitlines() == [
            os.path.join(out, "aggregate.csv"),
            os.path.join(out, "pernode.csv")]

    def test_duplicate_protocol_is_an_error_line(self, tmp_path, capsys):
        save_scenario(flat_scenario(1), str(tmp_path / "sc"))
        out = tmp_path / "camp"
        code = main(["campaign", "--scenario-template", str(tmp_path / "sc"),
                     "--protocols", "ewan,ewan", "--runs", "1",
                     "--seed", "9", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "ewan" in err
        assert not out.exists()

    def test_unknown_protocol_is_named(self, tmp_path, capsys):
        save_scenario(flat_scenario(1), str(tmp_path / "sc"))
        code = main(["campaign", "--scenario-template", str(tmp_path / "sc"),
                     "--protocols", "ewan,zigbee", "--runs", "1",
                     "--seed", "9", "--out", str(tmp_path / "camp")])
        assert code == 1
        assert "zigbee" in capsys.readouterr().err

    def test_empty_protocol_list_is_an_error_line(self, tmp_path, capsys):
        save_scenario(flat_scenario(1), str(tmp_path / "sc"))
        out = tmp_path / "camp"
        code = main(["campaign", "--scenario-template", str(tmp_path / "sc"),
                     "--protocols", " , ", "--runs", "1",
                     "--seed", "9", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: no protocols given\n"
        assert not out.exists()


class TestNegativeSeedOptions:
    @pytest.mark.parametrize("command, option", (
        ("gen", "--seed"), ("run", "--seed"), ("run", "--run-index"),
        ("campaign", "--seed")))
    def test_negative_value_is_an_error_line_naming_the_option(
            self, tmp_path, capsys, command, option):
        sc = str(tmp_path / "sc")
        save_scenario(flat_scenario(1), sc)
        out = tmp_path / "out"
        argv = {
            "gen": ["scenario", "gen", "--kind", "mh", "--seed", "7"],
            "run": ["run", "--scenario", sc, "--protocol", "ewan",
                    "--seed", "7", "--run-index", "0"],
            "campaign": ["campaign", "--scenario-template", sc,
                         "--protocols", "ewan", "--runs", "1", "--seed", "7"],
        }[command] + ["--out", str(out)]
        argv[argv.index(option) + 1] = "-1"
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {option} must be a non-negative integer, not -1\n")
        assert not out.exists()


class TestVerifyCommand:
    def test_clean_scenario_passes(self, tmp_path, capsys):
        gen(tmp_path, "mh", "--kind", "mh")
        code = main(["verify", "--scenario", str(tmp_path / "mh")])
        assert code == 0
        assert "scenario ok" in capsys.readouterr().out

    def test_violated_contract_is_named_and_fails(self, tmp_path, capsys):
        path = gen(tmp_path, "mh", "--kind", "mh")
        with open(path) as fh:
            doc = yaml.safe_load(fh)
        doc["links_single_hop"][0][3] = 150.0
        doc["links_single_hop"][3][0] = 150.0
        with open(path, "w") as fh:
            yaml.safe_dump(doc, fh, sort_keys=True)
        code = main(["verify", "--scenario", path])
        assert code == 1
        assert "long-range host link" in capsys.readouterr().err

    def test_fixed_traces_shorter_than_the_horizon_fail(self, tmp_path,
                                                         capsys):
        path = gen(tmp_path, "fh", "--kind", "fh", "--days", "1",
                   "--fixed-traces")
        with open(path) as fh:
            doc = yaml.safe_load(fh)
        doc["horizon_s"] = 259200
        with open(path, "w") as fh:
            yaml.safe_dump(doc, fh, sort_keys=True)
        code = main(["verify", "--scenario", path])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert "trace for node 1 covers 86400 s but the horizon is 259200 s" in err

    def test_yaml_syntax_error_is_an_error_line(self, tmp_path, capsys):
        os.makedirs(tmp_path / "sc")
        (tmp_path / "sc" / "scenario.yaml").write_text("kind: [unclosed\n")
        code = main(["verify", "--scenario", str(tmp_path / "sc")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    # (row, line it replaces); line None appends it, so "" is a blank
    # trailing line
    @pytest.mark.parametrize("row, line", [
        ("120.0", 5),
        ("360.0,dark", 7),
        ("", None),
    ])
    def test_malformed_trace_row_is_an_error_line(self, tmp_path, capsys,
                                                  row, line):
        gen(tmp_path, "fixed", "--kind", "fh", "--days", "2",
            "--fixed-traces")
        trace = tmp_path / "fixed" / "traces" / "node01.csv"
        rows = trace.read_text().splitlines()
        if line is None:
            rows.append(row)
            line = len(rows)
        else:
            rows[line - 1] = row
        trace.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        code = main(["verify", "--scenario", str(tmp_path / "fixed")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert f"node01.csv: line {line}:" in err

    def _fixed(self, tmp_path):
        gen(tmp_path, "fixed", "--kind", "fh", "--days", "2",
            "--fixed-traces")
        return tmp_path / "fixed"

    def _edit_doc(self, scen_dir, **fields):
        path = scen_dir / "scenario.yaml"
        doc = yaml.safe_load(path.read_text())
        doc.update(fields)
        path.write_text(yaml.safe_dump(doc, sort_keys=True))

    @staticmethod
    def _assert_error_line(capsys, scen, tmp_path, message):
        """verify and run both fail with an error: line naming the scenario
        and holding message, and run writes no metrics."""
        capsys.readouterr()
        for argv in (["verify", "--scenario", scen],
                     ["run", "--scenario", scen, "--protocol", "ewan",
                      "--seed", "3", "--out", str(tmp_path / "out")]):
            code = main(argv)
            err = capsys.readouterr().err
            assert code == 1, argv
            assert err.startswith("error:")
            assert scen in err
            assert message in err
        assert not os.path.exists(tmp_path / "out" / "metrics.csv")

    @pytest.mark.parametrize("power", ("nan", "inf"))
    def test_non_finite_trace_sample_is_an_error_line(self, tmp_path, capsys,
                                                      power):
        scen = self._fixed(tmp_path)
        trace = scen / "traces" / "node01.csv"
        rows = trace.read_text().splitlines()
        assert rows[4].startswith("180.0,")
        rows[4] = f"180.0,{power}"
        trace.write_text("\n".join(rows) + "\n")
        self._assert_error_line(capsys, str(scen), tmp_path,
                                "node01.csv: line 5:")

    # horizon and storage values that no run can use, a node count that
    # verify once truncated, and a string or a bool that once loaded as a
    # number; the fixed traces leave no trace-span check that would catch
    # them by accident
    @pytest.mark.parametrize("field, value", [
        ("horizon_s", float("nan")),
        ("horizon_s", float("inf")),
        ("horizon_s", -3600.0),
        ("initial_charge_j", -0.1),
        ("storage_capacity_j", float("nan")),
        ("n_nodes", 15.9),
        ("horizon_s", "86400"),
        ("storage_capacity_j", True),
        ("initial_charge_j", "0.1"),
    ])
    def test_out_of_range_scalar_is_an_error_line(self, tmp_path, capsys,
                                                  field, value):
        scen = self._fixed(tmp_path)
        self._edit_doc(scen, **{field: value})
        with pytest.raises(ScenarioError, match=field):
            load_scenario(str(scen))
        self._assert_error_line(capsys, str(scen), tmp_path, field)

    # parameter values that pass every structural check, but that made
    # run hang (sample_interval), end in a traceback (backoff_window,
    # period_t, a negative sh_retx_host, a tx power without a known
    # supply draw, a fractional day count, and verify itself on a zero
    # bandwidth or datarate), write nan energies (p_idle), treat a
    # fraction as a count (p) or a quoted word as true (special_deep,
    # has_crc, explicit_header); then a bool taken as a number, a
    # non-finite recipe value, a harvest window outside the day (a
    # negative start index, or a window cut at midnight), deep nodes
    # that harvest nothing, deep-node shaping outside mh, and payloads
    # past the 255 bytes a packet holds
    @pytest.mark.parametrize("section, field, value", [
        ("energy", "sample_interval", float("nan")),
        ("energy", "p_idle", float("nan")),
        ("params", "backoff_window", float("nan")),
        ("params", "backoff_window", float("inf")),
        ("params", "period_t", float("nan")),
        ("params", "delta_t", float("nan")),
        ("params", "p", 1.5),
        ("params", "sh_retx_host", -1),
        ("radio.single_hop", "bandwidth_hz", 0),
        ("radio.multi_hop", "datarate_bps", 0),
        ("radio.bootstrap", "tx_power_dbm", float("nan")),
        ("radio.multi_hop", "tx_power_dbm", 13.0),
        ("trace_gen", "days", 1.5),
        ("trace_gen", "special_deep", "no"),
        ("radio.single_hop", "has_crc", "no"),
        ("radio.multi_hop", "explicit_header", "yes"),
        ("energy", "p_idle", True),
        ("params", "p", True),
        ("radio.multi_hop", "preamble_bytes", True),
        ("radio.single_hop", "center_frequency_hz", True),
        ("trace_gen", "rho", True),
        ("trace_gen", "noise_sigma", float("nan")),
        ("trace_gen", "e_avg_range_j", [1, float("inf")]),
        ("trace_gen", "start_window_h", [-30, 10]),
        ("trace_gen", "end_window_h", [16, 30]),
        ("trace_gen", "deep_energy_factor", 0),
        ("trace_gen", "deep_window_extension_h", -8),
        ("trace_gen", "special_deep", True),
        ("params", "data_payload", 300),
        ("params", "max_data_slots_mh", 250),
    ])
    def test_invalid_parameter_is_an_error_line(self, tmp_path, capsys,
                                                section, field, value):
        path = gen(tmp_path, "fh", "--kind", "fh", "--days", "1")
        with open(path) as fh:
            doc = yaml.safe_load(fh)
        table = doc
        for key in section.split("."):
            table = table[key]
        table[field] = value
        with open(path, "w") as fh:
            yaml.safe_dump(doc, fh, sort_keys=True)
        with pytest.raises(ScenarioError, match=rf"\b{field}\b.* must be"):
            load_scenario(path)
        self._assert_error_line(capsys, path, tmp_path, field)

    # a file this version cannot read: another format, no format, a key
    # save_scenario never writes, a kind with no topology contract, or a
    # bottleneck pair that is not two of the scenario's node ids
    @pytest.mark.parametrize("edit, message", [
        ({"format": 7, "horizon_sec": 1.0}, "scenario format 7"),
        ({"format": None}, "scenario format missing"),
        ({"horizon_sec": 1.0}, "unknown top-level keys: horizon_sec"),
        ({"kind": "zz"}, "unknown scenario kind 'zz'"),
        ({"bottleneck": [True, "x"]},
         "bottleneck must be a pair of integers, got [True, 'x']"),
        ({"bottleneck": [0, 99]},
         "bottleneck pair [0, 99] must name nodes in 1..15"),
    ], ids=["format-7", "no-format", "stray-key", "kind-zz",
            "bottleneck-types", "bottleneck-range"])
    def test_unreadable_scenario_is_an_error_line(self, tmp_path, capsys,
                                                  edit, message):
        path = gen(tmp_path, "fh", "--kind", "fh", "--seed", "3",
                   "--days", "1")
        with open(path) as fh:
            doc = yaml.safe_load(fh)
        for key, value in edit.items():
            if value is None:
                del doc[key]
            else:
                doc[key] = value
        with open(path, "w") as fh:
            yaml.safe_dump(doc, fh, sort_keys=True)
        self._assert_error_line(capsys, path, tmp_path, message)

    def test_sh_retx_node_is_an_unknown_field(self, tmp_path, capsys):
        # saved scenarios of earlier versions carry sh_retx_node: 0, a
        # field no run read; it is rejected by name instead of ignored
        path = gen(tmp_path, "fh", "--kind", "fh", "--days", "1")
        with open(path) as fh:
            doc = yaml.safe_load(fh)
        doc["params"]["sh_retx_node"] = 0
        with open(path, "w") as fh:
            yaml.safe_dump(doc, fh, sort_keys=True)
        with pytest.raises(ScenarioError, match="sh_retx_node"):
            load_scenario(path)
        capsys.readouterr()
        code = main(["verify", "--scenario", path])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert "sh_retx_node" in err

    def test_traces_as_a_list_is_an_error_line(self, tmp_path, capsys):
        scen = self._fixed(tmp_path)
        doc = yaml.safe_load((scen / "scenario.yaml").read_text())
        self._edit_doc(scen, traces=list(doc["traces"].values()))
        capsys.readouterr()
        code = main(["verify", "--scenario", str(scen)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert "traces must map node ids" in err

    # faults in a saved case-study scenario that verify once passed, or
    # reported without naming the field or the file; a trace key of 1.7
    # once loaded as node 1, a nan path loss was reported as asymmetry,
    # a section that is not a mapping ended in a ** or index error, and
    # a trace reference to a directory ended in an OSError line
    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(n_nodes=0, kind="fh", links_multi_hop=[[0.0]],
                                links_single_hop=[[0.0]]),
         "n_nodes must be at least 1, got 0"),
        (lambda doc: doc["radio"].update(multihop=doc["radio"]["multi_hop"]),
         "unknown radio keys: multihop"),
        (lambda doc: doc["traces"].update({7: doc["traces"][1]}),
         "harvesting traces for nodes [7] outside the scenario's nodes 1..2"),
        (lambda doc: doc["traces"].update({1.7: doc["traces"].pop(1)}),
         "traces keys must be integer node ids, got 1.7"),
        (lambda doc: doc["links_multi_hop"][0].__setitem__(1, float("nan")),
         "path loss [0][1] must be finite, got nan"),
        (lambda doc: doc.update(params=None),
         "params must be a mapping, got None"),
        (lambda doc: doc.update(energy=[1]),
         "energy must be a mapping, got [1]"),
        (lambda doc: doc.update(radio=[]), "radio must be a mapping, got []"),
        (lambda doc: doc["traces"].update({1: 5}),
         "trace reference for node 1 must be a file path, got 5"),
        (lambda doc: doc["traces"].update({1: "traces"}),
         "missing trace file: "),
    ], ids=["no-nodes", "stray-vsn", "stray-trace", "float-trace-key",
            "nan-link", "params-null", "energy-list", "radio-list",
            "trace-ref-int", "trace-ref-dir"])
    def test_case_study_fault_is_a_named_error_line(self, tmp_path, capsys,
                                                    edit, message):
        path = gen(tmp_path, "case", "--kind", "case-study")
        with open(path) as fh:
            doc = yaml.safe_load(fh)
        edit(doc)
        with open(path, "w") as fh:
            yaml.safe_dump(doc, fh, sort_keys=True)
        with pytest.raises(ScenarioError) as exc:
            load_scenario(path)
        assert message in str(exc.value)
        capsys.readouterr()
        code = main(["verify", "--scenario", path])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: malformed scenario file {path}: ")
        assert message in err
