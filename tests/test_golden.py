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
schedules and over a finite pool sampled with replacement.  Later cells pin
engine paths that the first 26 leave open: the log-Laplace utility with
``a`` other than 1 and the uniform utility, each on oup, naive and coup
over a pool slow enough for runs to reach the pivot ``kappa0`` (there a
utility computed another way changes bits that a value near 1 rounds
away), an up run over a pool listed worst first, whose incumbent
eliminates rivals from the low-UCB heap, oup and up runs that stop by
budget and by rounds, an up run that stops with a single survivor, an oup
run on the two-point family, a coup run over a finite pool sampled
without replacement, coup runs whose budget runs out exactly where phase
1 ends and inside phase 2, an oup run over one configuration, whose heaps
hold no rival while it is held, an up run whose held arm ranks below
the best rival on the low-UCB heap yet is not eliminated, a coup run
over a finite pool, sampled with replacement, whose phases pull every arm
they sample, so each phase's draws are pinned in order, and an oup run
whose instances run out on a pull whose doubling test fires.
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
# POOL listed worst first: up's sweep ends on the best arm, which eliminates
# the others as rivals, not as the arm just pulled
REVERSED = "family=exponential\nparams=200.0;60.0;20.0;5.0;1.0\nn_configs=5\n"
# runtimes around the pivots below, for the cells of the other utilities
SLOW = "family=exponential\nparams=30.0;45.0;60.0;90.0\n"
# far apart, so up eliminates down to one survivor in about 1,300 rounds
SPREAD = "family=exponential\nparams=0.5;30.0;100.0;400.0\n"
# one configuration: with it held, the heaps hold no rival
ONE = "family=exponential\nparams=3.0\n"
# one configuration of 18 equal runtimes: at delta 0.5 the pull past the
# last of them is one whose doubling test fires
EIGHTEEN = "a," + ",".join(["5.0"] * 18) + "\n"
# at seed 40, up's held arm ranks below the best rival on the low-UCB heap
# yet stays at or above the incumbent's LCB
CLOSE = "family=exponential\nparams=3.09;11.56;72.19;154.72;179.79\n"
# ten two-point configurations: enough for two coup phases without replacement
TWOPOINT = "family=twopoint\nparams=" + ";".join((
    "0.5,40.0,0.9", "1.0,80.0,0.6", "2.0,30.0,0.5", "0.25,120.0,0.8", "4.0,20.0,0.7",
    "0.1,200.0,0.75", "3.0,60.0,0.85", "1.5,10.0,0.4", "0.75,90.0,0.65", "6.0,15.0,0.95",
)) + "\n"
# utilities beside loglaplace:kappa0=60,a=1, by the suffix of their cells
UTILITIES = {
    "a1.7": "loglaplace:kappa0=16,a=1.7",
    "a0.5": "loglaplace:kappa0=16,a=0.5",
    "uniform": "uniform:kappa0=60",
}

STOPS = {
    "oup": "epsilon:0.3",
    "up": "epsilon:0.3",
    "naive": "epsilon:0.5",
    "sh": "budget:64",
    "coup": "phases:3",
}

FILES = ("trace.csv", "summary.csv", "certificates.csv")

# what coup's phase 1 costs on PARAMETRIC at seed 1, delta 0.1, doubling new
PHASE_ONE_SECONDS = "27.979850092166956"


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
    for suffix, utility in UTILITIES.items():
        for procedure in ("oup", "naive", "coup"):
            cells.append((
                f"{procedure}_{suffix}",
                uc.ExperimentSpec(
                    procedure=procedure, oracle="synthetic:slow.txt", utility=utility,
                    stop=STOPS[procedure], seed=1, delta=0.1, doubling="new",
                ),
            ))
    cells.append((
        "up_rival_eliminated",
        uc.ExperimentSpec(
            procedure="up", oracle="synthetic:reversed.txt", utility="loglaplace:kappa0=60,a=1",
            stop="epsilon:0.3", seed=1, delta=0.1, doubling="new",
        ),
    ))
    for procedure in ("oup", "up"):
        for stop in ("budget:5000", "rounds:500"):
            cells.append((
                f"{procedure}_{stop.partition(':')[0]}",
                uc.ExperimentSpec(
                    procedure=procedure, oracle="synthetic:pool.txt",
                    utility="loglaplace:kappa0=60,a=1", stop=stop, seed=1, delta=0.1,
                    doubling="new",
                ),
            ))
    for name, procedure, oracle, stop, without_replacement in (
        ("up_single_survivor", "up", "synthetic:spread.txt", "single_survivor", False),
        ("oup_twopoint", "oup", "synthetic:twopoint.txt", "epsilon:0.3", False),
        ("coup_without_replacement", "coup", "synthetic:twopoint.txt", "phases:2", True),
        # the total_seconds of phases:1 on this space and seed, and a budget
        # that runs out in phase 2
        ("coup_budget_at_phase_boundary", "coup", "synthetic:parametric.txt",
         f"budget:{PHASE_ONE_SECONDS}", False),
        ("coup_budget_mid_phase2", "coup", "synthetic:parametric.txt", "budget:45.0", False),
    ):
        cells.append((
            name,
            uc.ExperimentSpec(
                procedure=procedure, oracle=oracle, utility="loglaplace:kappa0=60,a=1",
                stop=stop, seed=1, delta=0.1, doubling="new",
                without_replacement=without_replacement,
            ),
        ))
    cells.append((
        "oup_one_config",
        uc.ExperimentSpec(
            procedure="oup", oracle="synthetic:one.txt", utility="loglaplace:kappa0=60,a=1",
            stop="rounds:20", seed=1, delta=0.1,
        ),
    ))
    cells.append((
        "up_held_arm_kept",
        uc.ExperimentSpec(
            procedure="up", oracle="synthetic:close.txt", utility="loglaplace:kappa0=60,a=1",
            stop="epsilon:0.3", seed=40, delta=0.1, doubling="new",
        ),
    ))
    # at seed 2 each of the 16 arms that phases 1-3 sample is pulled, so the
    # trace pins every draw in its place (phase 1 draws [1, 1, 1, 0, 0])
    cells.append((
        "coup_finite_slow",
        uc.ExperimentSpec(
            procedure="coup", oracle="synthetic:slow.txt", utility="loglaplace:kappa0=60,a=1",
            stop="phases:3", seed=2, delta=0.1, doubling="new",
        ),
    ))
    # the round that runs out of instances would double the captime: it
    # neither counts its run nor charges the doubling's reruns
    cells.append((
        "oup_exhausted_at_doubling",
        uc.ExperimentSpec(
            procedure="oup", oracle="matrix:eighteen.csv", utility="loglaplace:kappa0=60,a=1",
            stop="rounds:1000", seed=1, delta=0.5,
        ),
    ))
    return cells


def digests(workdir: Path) -> dict[str, dict[str, str]]:
    """Run the grid inside ``workdir`` and digest every CSV each cell wrote."""
    (workdir / "pool.txt").write_text(POOL)
    (workdir / "parametric.txt").write_text(PARAMETRIC)
    (workdir / "lognormal.txt").write_text(LOGNORMAL)
    (workdir / "m.csv").write_text(MATRIX)
    (workdir / "reversed.txt").write_text(REVERSED)
    (workdir / "slow.txt").write_text(SLOW)
    (workdir / "spread.txt").write_text(SPREAD)
    (workdir / "twopoint.txt").write_text(TWOPOINT)
    (workdir / "one.txt").write_text(ONE)
    (workdir / "close.txt").write_text(CLOSE)
    (workdir / "eighteen.csv").write_text(EIGHTEEN)
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
    # cells added after the first 26
    'coup_a0.5': {
        'certificates.csv': 'a1b342084ad63fe7fff707ec96176d95ebd6df1a92090225a462d003955dd2e1',
        'summary.csv': '2a492ca507dc08d9381a52220b25c5a6b9b1584d779b6ba195a282435bb0ef86',
        'trace.csv': 'ea746ada25a6c468164a062562f7bbf2c03fb17ce3fd7816c6b196b1e6dcffd6',
    },
    'coup_a1.7': {
        'certificates.csv': '5b1f4132e37541560c7b8d29abaae1007920bb898e870ac64a99633ca6c7e9de',
        'summary.csv': 'c8be019417d15e92b100719b1aeddb4a977c199f1955b200fade08746ff3ccd6',
        'trace.csv': '3681e3232da074c2b3bca1fccedcde8762dde1d47e49cbbb9cf47a8850144fcd',
    },
    'coup_uniform': {
        'certificates.csv': 'aaeea22f88ab91d2833767fa47c3bee922576ffa422e81a3f04c83c8ba116728',
        'summary.csv': '3ac00830a700a1435405726e207f6da7ae5f8a7fc66fa032703ad7f6bedb2e5d',
        'trace.csv': '2e3bf5f6392894bcde669b61f87a5516c7d1ea4c938abdd59c67ce4854d16609',
    },
    'naive_a0.5': {
        'summary.csv': 'dbf58e1f87502646c2dae805338a683411d1a5992e4d6a824613f86c9544c986',
        'trace.csv': '77394948f06c9faff9d5bd05dfb82939d0a06eb2de59fd249fc460d66df6fd1c',
    },
    'naive_a1.7': {
        'summary.csv': '8a57a5564f9c497dc41293c92f9fb4ac65a5e002f580268489c3f223a8a35895',
        'trace.csv': '00fd31ee2b4d302394538d411860c2f2d4803a4b90d49c3cd52a8fc156c8c36b',
    },
    'naive_uniform': {
        'summary.csv': 'a31e4800e0d6164548ca30ccf446e5aa18c3cce431a9a647533e151993ff96d5',
        'trace.csv': '77394948f06c9faff9d5bd05dfb82939d0a06eb2de59fd249fc460d66df6fd1c',
    },
    'oup_a0.5': {
        'summary.csv': 'a92d084dec40eb691cb4abfe1bdbaecb1da4797140bedd7c5ac2a919959199c8',
        'trace.csv': '5566532b117be3a3f0b1fedcd2ed5cc9fd942ff2de3ec42e07d2f6b2998098a7',
    },
    'oup_a1.7': {
        'summary.csv': '1e4554301553cd930ba839bd5353287634b4f8dccd083d6b43ebb28eef18e7f5',
        'trace.csv': '7624cf8d7b039959f4890c4967490f8929022cf9568afe7c0e36413b68c4ce66',
    },
    'oup_budget': {
        'summary.csv': '8e41bd7b44135ccf3c35da498800fa9afced8dbb8a4bb4fc96c1c261178ad2b7',
        'trace.csv': '0d4816c1ca2c303794f9d02be33ae6c4f70f021161e713f2dbf1ea71ad46f078',
    },
    'oup_rounds': {
        'summary.csv': '36a448641aaabfbb8ca7365ee78f6343b06f44754911a7980d8e1cb3132965c3',
        'trace.csv': '48ce9f142273d033643e95f71cfbdf07e8ef891bba179efd0f1a00daf7282ec9',
    },
    'oup_uniform': {
        'summary.csv': 'e0538014718109d82cbd6194cefd19e9c0047ee58e00916e39a209dde6095874',
        'trace.csv': '5da0fa4f8ed14747be640717e520376c4e67d10f815e167fb6275517c5c6bc98',
    },
    'up_budget': {
        'summary.csv': '64b9ffa32b1b813b76351e89c85171a51aa7053f7d6e1f2d112f142196118356',
        'trace.csv': '665f1c64407bb95e43f66a2b1cd1a9e6a9a729e0f792749ec4e8ff1fac430fcb',
    },
    'up_rival_eliminated': {
        'summary.csv': '7b3d4507cfd2af3efc7aad6822743e03d9ab7084334fa3ec7bec3f08b320c9a9',
        'trace.csv': 'a8d5ebfa901b33f0ee2cf8f6c58ba5ec53d02e0dc9be80bdeede5110fbb20386',
    },
    'up_rounds': {
        'summary.csv': '3e75ebe76aa0918b5147489e35b1af2dfafbc927f7a9dadafb37e166f84213b3',
        'trace.csv': '7a792212917c9b9d0a397bd039aebfae42d601513a1d19dc629173ea7b4b3686',
    },
    # cells added after the first 40
    'coup_without_replacement': {
        'certificates.csv': '2493ab534e70a09924a81baf8eb4577e25e0e42754386f90ebbece89931e5653',
        'summary.csv': 'a4b9cfbe123de0661ce280d2aaaf0a3b5f245b618859106f1712425777a1257c',
        'trace.csv': '04f21e7ac1c6987d13aa5617e6bfc8ba3461c207bc21ee1420bd9bf54d60b683',
    },
    'oup_twopoint': {
        'summary.csv': '917f105648ed7822d7383010d8db517a2614b7f0998f2ad3fc60c1bc5213dd42',
        'trace.csv': '4f2bf92f3cd73861913daf6f1cec02f705349ff179d6d42df88055bc1ec13784',
    },
    'up_single_survivor': {
        'summary.csv': 'db7f9d2f46fcb1fc2d6f5cc71e227a4b054c9148221dc80650209121e78f50b1',
        'trace.csv': '79037289a2d853ae004751dd92ebc7a8ac465f469cccd514b3058e7115e5135b',
    },
    # cells added after the first 43
    'coup_budget_at_phase_boundary': {
        'certificates.csv': '4dc712b990e67c5973511ff2e5d0ad0d6bacf4d8fd0cd85cb0e9e39b80d2dd02',
        'summary.csv': '3d708934be2b6cb2b29f3837929a08ca8a1309566ae7917ea9ceffbda13672b3',
        'trace.csv': '4f0c79b754c762b06fa61b9e7dd334714c7e78db4d4956373fe8e6bee2e0f144',
    },
    'coup_budget_mid_phase2': {
        'certificates.csv': '4dc712b990e67c5973511ff2e5d0ad0d6bacf4d8fd0cd85cb0e9e39b80d2dd02',
        'summary.csv': '1f4b9d2bce6d9e9c92b0dfcac688a14b1c599ddadb83c5dd64cdd9d408dc3931',
        'trace.csv': '524c7e75e4abf49a9ed95b1d797221e15b3e0fba70a86dc9c249077265711d88',
    },
    # cells added after the first 45
    'oup_one_config': {
        'summary.csv': '856c4db0558bf225c34fb286aada68a8d5c2bcb9d25689489552b4729212211b',
        'trace.csv': '60b89a9a9e63edabb16d86cecbc31cf7f5271fa959a9fb24820c2970540e159e',
    },
    'up_held_arm_kept': {
        'summary.csv': '4f6e4e195636721e4283026afc9a7cf12a07515062a3a96db811b40b20bed89f',
        'trace.csv': '366a6400abb065e55fd352805fa7fc539e1a117c68d669ea29e95edc91ee8a12',
    },
    # cells added after the first 47
    'coup_finite_slow': {
        'certificates.csv': 'e6aaeaaeb20f41acad847eb081dbf37aecfa8516cfe40cd2c68d7af5bdc8e3ee',
        'summary.csv': '2477b346e08d692eea53120bbd2f01cb8574d3fc0bc6d7980fc3819ce0aefbea',
        'trace.csv': '93b6cf40559b441e0cd2338053a8ab6385e8a0dd52294d349b0a45ef43821160',
    },
    # cells added after the first 48
    'oup_exhausted_at_doubling': {
        'summary.csv': '7283a9a187d28ee17e501674194ef5c51dd3f0a5e60b03ebdb6d6eb16f42dced',
        'trace.csv': '23748e0ba52707e25bc1b2481c9eabe03c621b90d11e4bb676c95f991bc5189d',
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
    # the pull that ran out of instances counted no run and charged no rerun
    with open("oup_exhausted_at_doubling/summary.csv", newline="") as handle:
        row = dict(zip(*csv.reader(handle)))
    assert (row["total_seconds"], row["run_count"], row["rounds"]) == ("18.0", "18", "18")
    # the boundary cell's budget is spent by the round that certifies phase 1
    with open("coup_budget_at_phase_boundary/certificates.csv", newline="") as handle:
        (certificate,) = csv.DictReader(handle)
    assert certificate["ledger_seconds"] == PHASE_ONE_SECONDS


if __name__ == "__main__":
    import pprint
    import tempfile

    os.environ.pop("UTILCAP_OUT", None)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        pprint.pprint(digests(Path(tmp)), stream=sys.stdout, width=100)
