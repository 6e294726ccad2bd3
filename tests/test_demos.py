"""Smoke tests: the demos run in process and print their key lines."""
from __future__ import annotations

import os
import re
import runpy

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")


def run_demo(name: str, capsys) -> str:
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    return capsys.readouterr().out


def test_severed_link_falls_back_to_single_hop_605_s_later(capsys):
    out = run_demo("severed_link.py", capsys)
    events = [line.strip() for line in out.splitlines()
              if line.startswith("  ") and "node=" in line]
    assert events == [
        "0.000000 power_on node=1 e=0.680818",
        "14.162223 sync_ok node=1 mh_round=1 tau1=285.838",
        "300.000000 join node=1 vsn=mh via=bootstrap k=1",
        "600.000000 sched_miss node=1 vsn=mh k=2 missed=1",
        "900.000000 sched_miss node=1 vsn=mh k=3 missed=2",
        "905.000000 join node=1 vsn=sh via=mh_exit k=3",
    ]
    assert "t=  905.0  single_hop  k=3  schedule=yes" in out
    assert "605 s later" in out


def test_case_study_delivers_from_both_nodes(capsys):
    out = run_demo("case_study.py", capsys)
    delivered = re.findall(r"^node (\d): (\d+) packets delivered", out, re.M)
    assert [node for node, _ in delivered] == ["1", "2"]
    assert all(int(packets) > 0 for _, packets in delivered)
