"""Golden digests of the CSV outputs over a fixed grid of runs.

A10 compares two runs of the same build, so it cannot see a change that
alters behaviour.  These digests were recorded from an earlier build; a
refactor that keeps every trace, summary and certificate byte for byte
leaves them unchanged.  Re-record them only for an intended change of
behaviour, and say why in the change:

    PYTHONPATH=src python tests/test_golden.py

The grid covers all five procedures, two seeds and both doubling rules, a
matrix oracle run to instance exhaustion (partial outputs), an oup run on
lognormal runtimes (the scipy inverse CDF), a coup run whose budget is too
small to certify (incumbent -1, eps nan), and coup runs under two more
schedules and over a finite pool sampled with replacement.
"""

from __future__ import annotations

import csv
import hashlib
import os
import sys
from pathlib import Path

import utilcap as uc

POOL = "family=exponential\nparams=1.0;5.0;20.0;60.0;200.0\nn_configs=5\n"
PARAMETRIC = "family=parametric_exponential\nparams=0.1,10000\n"
# runtimes through the lognormal inverse CDF, the only draw that needs scipy
LOGNORMAL = "family=lognormal\nparams=0.0,1.0;1.5,0.8;2.5,1.2;3.5,0.5\n"
# 3 configurations by 6 instances: oup runs out of columns before eps 0.01
MATRIX = "a,0.5,3,0.25,8,1,2\nb,4,40,2,90,7,3\nc,20,1,60,300,5,150\n"

STOPS = {
    "oup": "epsilon:0.3",
    "up": "epsilon:0.3",
    "naive": "epsilon:0.5",
    "sh": "budget:64",
    "coup": "phases:3",
}

FILES = ("trace.csv", "summary.csv", "certificates.csv")


def grid() -> list[tuple[str, uc.ExperimentSpec]]:
    """(cell name, spec) pairs; oracle paths are relative to the run directory."""
    cells = []
    for procedure, stop in STOPS.items():
        oracle = "synthetic:parametric.txt" if procedure == "coup" else "synthetic:pool.txt"
        for doubling in ("old", "new"):
            for seed in (1, 2):
                spec = uc.ExperimentSpec(
                    procedure=procedure,
                    oracle=oracle,
                    utility="loglaplace:kappa0=60,a=1",
                    stop=stop,
                    seed=seed,
                    delta=0.1,
                    doubling=doubling,
                    sh_kappa=8.0,
                )
                cells.append((f"{procedure}_{doubling}_seed{seed}", spec))
    cells.append((
        "oup_matrix_exhausted",
        uc.ExperimentSpec(
            procedure="oup", oracle="matrix:m.csv", utility="loglaplace:kappa0=60,a=1",
            stop="epsilon:0.01", seed=3, delta=0.1, doubling="new",
        ),
    ))
    cells.append((
        "oup_lognormal",
        uc.ExperimentSpec(
            procedure="oup", oracle="synthetic:lognormal.txt",
            utility="loglaplace:kappa0=60,a=1", stop="epsilon:0.3", seed=1, delta=0.1,
            doubling="new",
        ),
    ))
    cells.append((
        "coup_budget_uncertified",
        uc.ExperimentSpec(
            procedure="coup", oracle="synthetic:parametric.txt",
            utility="loglaplace:kappa0=60,a=1", stop="budget:1.0", seed=1, delta=0.1,
            doubling="new",
        ),
    ))
    for name, oracle, schedule, doubling in (
        ("coup_gamma_then_epsilon", "synthetic:parametric.txt", "gamma_then_epsilon", "old"),
        ("coup_custom_schedule", "synthetic:parametric.txt",
         "custom:eps=e^-p^2/30,gamma=e^-p/5", "new"),
        ("coup_finite_pool", "synthetic:pool.txt", "default", "new"),
    ):
        cells.append((
            name,
            uc.ExperimentSpec(
                procedure="coup", oracle=oracle, utility="loglaplace:kappa0=60,a=1",
                stop="phases:4", seed=1, delta=0.1, doubling=doubling, schedule=schedule,
            ),
        ))
    return cells


def digests(workdir: Path) -> dict[str, dict[str, str]]:
    """Run the grid inside ``workdir`` and digest every CSV each cell wrote."""
    (workdir / "pool.txt").write_text(POOL)
    (workdir / "parametric.txt").write_text(PARAMETRIC)
    (workdir / "lognormal.txt").write_text(LOGNORMAL)
    (workdir / "m.csv").write_text(MATRIX)
    out = {}
    for name, spec in grid():
        outdir = Path(name)
        try:
            uc.run_experiment(spec, outdir)
        except uc.InstanceExhaustedError:
            pass
        out[name] = {
            f: hashlib.sha256((outdir / f).read_bytes()).hexdigest()
            for f in FILES
            if (outdir / f).exists()
        }
    return out


EXPECTED: dict[str, dict[str, str]] = {
    'coup_budget_uncertified': {
        'certificates.csv': 'f9bc2b3f58026829c4add5afd9cd80791605462be287a935a620bac8e5f71cf0',
        'summary.csv': '14dab1a629710ca81a00655c014864a404809d2810961fc6cee5e65302f25295',
        'trace.csv': '705b4fd9789a13468b397a0187cb1cb4d3248a2f2602d33948de7f0fb2fae911',
    },
    'coup_custom_schedule': {
        'certificates.csv': '9dbb228c7f5ba63496c6bddfee4d3e53ce8c88d1268377f5296f47bc05cd0d23',
        'summary.csv': '6989690176ce80aa0821775bf3d3d74bec43b638efa7b8f2bf27dbb8985e1f2c',
        'trace.csv': '8b34dde5244b4c335204e8a0b2a5b7a6bff878c51dabd76b459271ec0c31d0fd',
    },
    'coup_finite_pool': {
        'certificates.csv': 'f742dec8a2bb69b8f58f0033d895e01e1ab4d36b4078ad5ecf4e1dcbbbe2a7ea',
        'summary.csv': 'abc95fa318cd0d34a9bce7d678ecb831d0c131332b9c11aeec06b3219f7ff75c',
        'trace.csv': 'dff32beaafacc0fb8fc3c799f44c781c53ef1576e9bc3d8d59eddb723e3c0c01',
    },
    'coup_gamma_then_epsilon': {
        'certificates.csv': '3a7cdaa5bc7e81d81b857a21d1941b4d39f81e2776b2a51593bee621fe9b50de',
        'summary.csv': '5d82ccd0f720fc82013da91d066aee0e4aaff1d7a1add15ad16b0cf73e86cf1a',
        'trace.csv': '416d16fecd93099e7c92cb3dabc4e8613ee994f46cea28a8fddd726782f52887',
    },
    'coup_new_seed1': {
        'certificates.csv': '9606363ae8d6b6259c6730ede079360d30c959b70e7dbf7fc4a7604c360fc618',
        'summary.csv': 'bf690c5ad3a7b4655abc463d7973e57950910af87798dd397596e36a7b1df661',
        'trace.csv': '7bc2cdef5e8b459c5abc2fc6173a3a6ff64afdde06362d9501035c0f768cac62',
    },
    'coup_new_seed2': {
        'certificates.csv': 'fb46cb816fa3098340ca37b8e35d411bf9edfd3efd425992acd5403048999164',
        'summary.csv': '55e6dc39b04713e43e821c8a4f3af36e7f1e78744c56605bd2c24912c31b7184',
        'trace.csv': '30b055680109b26aa77b7e4cab18f13b47e7957e3b7faea301502987fb932f3b',
    },
    'coup_old_seed1': {
        'certificates.csv': '0c746f2f855c0d1672467b34c53d875f4695bd717a58f94db25040e8bbf4470c',
        'summary.csv': '9816d95e13b8dd3a3d34adaaea498aee5629f2276edd4b1353cc27382bb3e887',
        'trace.csv': 'dae542b221df3ab3ae1a7b5c973077b8450a39b12dc7ed383d46f33dbe75b8d6',
    },
    'coup_old_seed2': {
        'certificates.csv': 'adbb82d1918cbee65360a06897a86ad409ba2e4ba612054317ee0fa81e642b93',
        'summary.csv': '247a5a2d687fbc39c49b862994c1c65cc1c45b42606bd41c8b12ff8382fc7bd3',
        'trace.csv': 'd4002aa2bbfed4286ef9bb783483099dec3dcf6d45cc2ac0f848997cdd1f610d',
    },
    'naive_new_seed1': {
        'summary.csv': '3397d515c481f177cac74454d8ba275f62d80947cb496521294a3ac9bb9ec393',
        'trace.csv': '47c8d68a40a811c50799c9a5dfd52d5b1353ed5e1bbc332b346b28cd25574e89',
    },
    'naive_new_seed2': {
        'summary.csv': 'c54e84dd97d2a7d51ea145b04a14c9e50441c22650da1abdd4faa992806ecc93',
        'trace.csv': 'abff949ee7f1bd6288fcd4fba6553f8289d9d77a565c6c619a59f00832e844f7',
    },
    'naive_old_seed1': {
        'summary.csv': 'e1814432d9b3d66a6b903bf71f4bb2ad8801d997fc44b8b2e630c21daa35629b',
        'trace.csv': '47c8d68a40a811c50799c9a5dfd52d5b1353ed5e1bbc332b346b28cd25574e89',
    },
    'naive_old_seed2': {
        'summary.csv': '1ee08d46515f19825f6feeda9aa236b604181902b572bd3006d87b6952d25d8d',
        'trace.csv': 'abff949ee7f1bd6288fcd4fba6553f8289d9d77a565c6c619a59f00832e844f7',
    },
    'oup_lognormal': {
        'summary.csv': '2864de9a43255e95b0fb104df834c2e967121518c86c3acbb466eebb6ecf05e9',
        'trace.csv': '80d7feda88cdfe38020d623e70bf4d4e8f8ea33807266acd792eb42176b8defd',
    },
    'oup_matrix_exhausted': {
        'summary.csv': '8fc77cbffd4e72951b954fd27e78cc63e4b53589aab4ff86a725d5011e247e90',
        'trace.csv': 'c6a049a13f90e03cc6f3d06810d359e934817a996f12b7083fcff8d1f842263a',
    },
    'oup_new_seed1': {
        'summary.csv': '0738a60c50af2859968e7dd4cc1865b7f6c6ab92111d1e10fefbc8786203fff6',
        'trace.csv': '0a8244a76804ff6524567e052b72d2c79d672f8272f2a2d27e32091deb31cc7b',
    },
    'oup_new_seed2': {
        'summary.csv': '17a80a970800d1efab229b1c18f41dae14e3196678a1ad2631b1f2b4889a0250',
        'trace.csv': 'c3bd4c8ca1fb91426fc50ecb6c116fb4e6bef1023993cab17217851301648d15',
    },
    'oup_old_seed1': {
        'summary.csv': 'f9f09846a5ae1710bdde1ff7cf918e2e0488edef39953b778b4c4448ce1b32da',
        'trace.csv': '75ab320beb5406636f9842c34acb889375be59293e397b74ff1a6f10044cd1ee',
    },
    'oup_old_seed2': {
        'summary.csv': 'c5a3a7b49c6bcab0a0fc2818a91a1f33f18fd9667217b09e15f7008132d2cc85',
        'trace.csv': 'e93ad70a3d93d9b09e4baf47a2e27aee17c1c3219d66d5f9147a81021b22114f',
    },
    'sh_new_seed1': {
        'summary.csv': '9fea4f393d23f3889a9341dbb414e5b285399e96875d8f84cbd5ce758c6b54c6',
        'trace.csv': '007e3f19384aa0b1819a4f885be23c658c6932685b702e395e1262fa2698b8bb',
    },
    'sh_new_seed2': {
        'summary.csv': 'd7f2555b11d0afe2d83baf38d04b610143260a9f947d6e3a41377e26de799320',
        'trace.csv': '02799dd6345d48b48fa72b0f9c70bf124b458a4b8bf5c70dac117772d8dd5406',
    },
    'sh_old_seed1': {
        'summary.csv': 'f67a580eb9a494de683c14124bfc9be0c804b0610b178c3081471c30d5305959',
        'trace.csv': '007e3f19384aa0b1819a4f885be23c658c6932685b702e395e1262fa2698b8bb',
    },
    'sh_old_seed2': {
        'summary.csv': 'd40af40a7c0e2a5ea3b4b1b89782705f5d2df2d9e41d1cdc4deb1c78307d8637',
        'trace.csv': '02799dd6345d48b48fa72b0f9c70bf124b458a4b8bf5c70dac117772d8dd5406',
    },
    'up_new_seed1': {
        'summary.csv': '89fecc855b2b4fc0049bfaf361805fe18dadfdb7fa638200c93159a3ceaa0af1',
        'trace.csv': 'd139044da8044ebc148d552d0833091470b4aa103defc7bab584b5722691104d',
    },
    'up_new_seed2': {
        'summary.csv': '107fa2b456db2f231d7e216c5dd68849a3c6bffabb0a64afc3141136aa19a6ee',
        'trace.csv': '6c82ba8060f602729ec9b5c57bec1dbb50c4a7e9e396246933143899d936b72e',
    },
    'up_old_seed1': {
        'summary.csv': '08b65cb001cd19bc6839b4eff4185351e03894be4c873bcb26093ca55f81b65f',
        'trace.csv': '40a2f9acb02ef2a978bc2e386b92afff1426e9cb0719e60d06c40f56754a862b',
    },
    'up_old_seed2': {
        'summary.csv': 'bda173b90435371dfb93ce1e0ba0d4d5fa9dd0a51f6f75f08fe2b117c31ab99a',
        'trace.csv': '8530bac40859ff0a4d0a935cba49451f0693793ac8eb2c7ba8b6eb97a59af7b2',
    },
}


def test_golden_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("UTILCAP_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    got = digests(tmp_path)
    assert got.keys() == EXPECTED.keys()
    changed = {name: got[name] for name in EXPECTED if got[name] != EXPECTED[name]}
    assert not changed, f"outputs changed: {sorted(changed)}"
    # the grid still reaches the partial and the uncertified outputs
    with open("oup_matrix_exhausted/summary.csv", newline="") as handle:
        assert list(csv.reader(handle))[1][-1] == "instance_exhausted"
    with open("coup_budget_uncertified/summary.csv", newline="") as handle:
        row = dict(zip(*csv.reader(handle)))
    assert (row["incumbent"], row["final_epsilon"]) == ("-1", "nan")


if __name__ == "__main__":
    import pprint
    import tempfile

    os.environ.pop("UTILCAP_OUT", None)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        pprint.pprint(digests(Path(tmp)), stream=sys.stdout, width=100)
