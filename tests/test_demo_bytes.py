"""Byte pins of ``helikin demo`` output.

Every demo output file is pinned by its sha256 for 16 argument
combinations: seeds 0/2, strokes 1.5/7.4 mm, roll theta 0/33 deg and
7/1001 eta steps. The digests were recorded with numpy 2.4.6 on x86-64;
another numpy build may round a BLAS product differently in the last bit
and change the printed digits. A refactor or speed-up of any stage the
demo runs must leave these bytes unchanged.
"""

import hashlib

import pytest

from helikin.cli import main

FILES = (
    "backbone.csv",
    "clearance.csv",
    "demo.json",
    "derived_geometry.json",
    "joints.csv",
    "phantom.json",
    "shape.svg",
    "tip.csv",
)

# (seed, stroke mm, theta deg, eta steps) -> sha256 of FILES, in order.
DIGESTS = {
    (0, 1.5, 0.0, 7): (
        "14edd46aaff80f0989069fcda041e4718071f55a0c3598579fcc221f2a8e3934",
        "43451c3da4af034ce7ca89778fd337da1fb86b7948ee38d598c53f39b0592337",
        "c7523597c9d881abbb031f1cfafd17c6bf6b342bea43b4ee86627ccfafc7916f",
        "c8ad35208211f3d714dd3beba336c5fcfcae4542d3ef8d754e3fd021aa9bc582",
        "9f9c7a003623edac3e91c6e2d176da92ea00f4dc41f13ccc61c74aced9cf25d0",
        "11fdf7af83f1bbe78de3a011791c9edc2e4c1e40e1589755c76b6f8b77cb3ca3",
        "ef9dfadd8085451a83265e79234b4771b4276daf6d832974b66f84d5de646c87",
        "61fd7fd2cdd8f1ed612569466d5365a6a9e73bcb3928af205027e74022b4034b",
    ),
    (0, 1.5, 0.0, 1001): (
        "14edd46aaff80f0989069fcda041e4718071f55a0c3598579fcc221f2a8e3934",
        "d3c56444d3465d6134b0642f87a5527668ca14ae23cd68e67fa35c2bd91bfae0",
        "c7523597c9d881abbb031f1cfafd17c6bf6b342bea43b4ee86627ccfafc7916f",
        "c8ad35208211f3d714dd3beba336c5fcfcae4542d3ef8d754e3fd021aa9bc582",
        "9f9c7a003623edac3e91c6e2d176da92ea00f4dc41f13ccc61c74aced9cf25d0",
        "11fdf7af83f1bbe78de3a011791c9edc2e4c1e40e1589755c76b6f8b77cb3ca3",
        "4f055cc1603e13ff48f47fd5103edea2b71bfd9df80f521e35bacea4ec5e2b3f",
        "89c141305efa2cfe171e2c46b341c68a8cc8a44d7d4e8cff488680c54eec236e",
    ),
    (0, 1.5, 33.0, 7): (
        "004e354134a0982e0a8129f11dd290eae812a3709c8e5d8e57a09d3c8d697ebb",
        "43451c3da4af034ce7ca89778fd337da1fb86b7948ee38d598c53f39b0592337",
        "db3d923957f2dd9403aeec8b40cec56638c907e8d1a96a1d1b26fdd9be6ce352",
        "c8ad35208211f3d714dd3beba336c5fcfcae4542d3ef8d754e3fd021aa9bc582",
        "6cbe919f67803188dfd795b2ea1e1279ef1152d4e5ed74dd6f8ecce2a12ff869",
        "fb0450d0d854412dc8fdaafeaee8617e8918ed390de1dbd96596ff32621e78da",
        "b68834082e5f2fe2fe811fb126803295b83403ce3bfec33d52d5fe5ea057d417",
        "93af94437a6d02acae4625b6cc7a0b5ddf032378aefffff16043a6e1560ac94a",
    ),
    (0, 1.5, 33.0, 1001): (
        "004e354134a0982e0a8129f11dd290eae812a3709c8e5d8e57a09d3c8d697ebb",
        "d3c56444d3465d6134b0642f87a5527668ca14ae23cd68e67fa35c2bd91bfae0",
        "db3d923957f2dd9403aeec8b40cec56638c907e8d1a96a1d1b26fdd9be6ce352",
        "c8ad35208211f3d714dd3beba336c5fcfcae4542d3ef8d754e3fd021aa9bc582",
        "6cbe919f67803188dfd795b2ea1e1279ef1152d4e5ed74dd6f8ecce2a12ff869",
        "fb0450d0d854412dc8fdaafeaee8617e8918ed390de1dbd96596ff32621e78da",
        "91b580b32679653fe12cf5a76433c7bf786f45feb556b786c82d7d856fbf9204",
        "26b3948f2822b7211434c9779ebd972e737008b25625764061af8fb7d2c7f99c",
    ),
    (0, 7.4, 0.0, 7): (
        "26566f9b036c2040e63c5ba820b9d179b8ebaad3956a5d02090fe76a3f543083",
        "e4a4c048d6a93422ef6aab4bd09306e5fef4ab9fc264e0d26ee45bd89b9fa9d0",
        "4ba140eb2fe00d08900859682e68d39d00bd330073f82904f5fdcd2f0482fef3",
        "c8ad35208211f3d714dd3beba336c5fcfcae4542d3ef8d754e3fd021aa9bc582",
        "0eb0a01814c371fae987469a218a1f8131fca499f38eacb756d8a6e4f8f6ad87",
        "c237edd3f10ea04980c9a27888aa1d324568441d41fc5bd9d8d18af91ba2aa95",
        "c95c570a7539994063acf8110126cd4c3b323a43857a18afed44d10c7cede837",
        "d61b89d72ad21f2556d5cb8592050908413f73f75c6c047d045057584ff8e9ce",
    ),
    (0, 7.4, 0.0, 1001): (
        "26566f9b036c2040e63c5ba820b9d179b8ebaad3956a5d02090fe76a3f543083",
        "b825fae0c2e7defcc4144327612aed608e2dedebced8916302c851eb22833752",
        "4ba140eb2fe00d08900859682e68d39d00bd330073f82904f5fdcd2f0482fef3",
        "c8ad35208211f3d714dd3beba336c5fcfcae4542d3ef8d754e3fd021aa9bc582",
        "0eb0a01814c371fae987469a218a1f8131fca499f38eacb756d8a6e4f8f6ad87",
        "c237edd3f10ea04980c9a27888aa1d324568441d41fc5bd9d8d18af91ba2aa95",
        "33948ff16dd9fb328304b9414024c529b535d1f0dfe5e14a38e8f23e398499af",
        "038ec8e7fe975fa4fbdf891ef88ad177a2c0139b1e912b8abcb81e8ac6db3409",
    ),
    (0, 7.4, 33.0, 7): (
        "3262fb1714f82c93743a644e7e3bf23b5f83c6ac1b2d9ed8f3f2ef8da2e47e60",
        "e4a4c048d6a93422ef6aab4bd09306e5fef4ab9fc264e0d26ee45bd89b9fa9d0",
        "a42258111b44f8395f7d523a306aba63c156138e17b85ceeef1424c28e69a79c",
        "c8ad35208211f3d714dd3beba336c5fcfcae4542d3ef8d754e3fd021aa9bc582",
        "de22aa8ee3305f8fd17405b353c9438727adc0de604fd2d99326c209d1e99bf6",
        "83a39a5e3ca234c8f8ea02ecba564c6bb169bc5220f3899e98a014e6fb3bafac",
        "96f2a2281b3127f3bea6432125ff4971c9ac42d194c182090358bfe43b140e8c",
        "b608e8e02ea3651c056cb4f1e877d6f07aaf8691de176603a0e553b09b74f5bf",
    ),
    (0, 7.4, 33.0, 1001): (
        "3262fb1714f82c93743a644e7e3bf23b5f83c6ac1b2d9ed8f3f2ef8da2e47e60",
        "b825fae0c2e7defcc4144327612aed608e2dedebced8916302c851eb22833752",
        "a42258111b44f8395f7d523a306aba63c156138e17b85ceeef1424c28e69a79c",
        "c8ad35208211f3d714dd3beba336c5fcfcae4542d3ef8d754e3fd021aa9bc582",
        "de22aa8ee3305f8fd17405b353c9438727adc0de604fd2d99326c209d1e99bf6",
        "83a39a5e3ca234c8f8ea02ecba564c6bb169bc5220f3899e98a014e6fb3bafac",
        "189f46907064d1528b84d6b90f31149f1ee1463b5c58673993e09e55fe3f9239",
        "3123fef9796e2abd0ff27b4fcc88d5997848255b04ac57f8fd27ca2f6ce4d205",
    ),
    (2, 1.5, 0.0, 7): (
        "14edd46aaff80f0989069fcda041e4718071f55a0c3598579fcc221f2a8e3934",
        "43451c3da4af034ce7ca89778fd337da1fb86b7948ee38d598c53f39b0592337",
        "c7523597c9d881abbb031f1cfafd17c6bf6b342bea43b4ee86627ccfafc7916f",
        "c8ad35208211f3d714dd3beba336c5fcfcae4542d3ef8d754e3fd021aa9bc582",
        "9f9c7a003623edac3e91c6e2d176da92ea00f4dc41f13ccc61c74aced9cf25d0",
        "11fdf7af83f1bbe78de3a011791c9edc2e4c1e40e1589755c76b6f8b77cb3ca3",
        "ef9dfadd8085451a83265e79234b4771b4276daf6d832974b66f84d5de646c87",
        "61fd7fd2cdd8f1ed612569466d5365a6a9e73bcb3928af205027e74022b4034b",
    ),
    (2, 1.5, 0.0, 1001): (
        "14edd46aaff80f0989069fcda041e4718071f55a0c3598579fcc221f2a8e3934",
        "d3c56444d3465d6134b0642f87a5527668ca14ae23cd68e67fa35c2bd91bfae0",
        "c7523597c9d881abbb031f1cfafd17c6bf6b342bea43b4ee86627ccfafc7916f",
        "c8ad35208211f3d714dd3beba336c5fcfcae4542d3ef8d754e3fd021aa9bc582",
        "9f9c7a003623edac3e91c6e2d176da92ea00f4dc41f13ccc61c74aced9cf25d0",
        "11fdf7af83f1bbe78de3a011791c9edc2e4c1e40e1589755c76b6f8b77cb3ca3",
        "4f055cc1603e13ff48f47fd5103edea2b71bfd9df80f521e35bacea4ec5e2b3f",
        "89c141305efa2cfe171e2c46b341c68a8cc8a44d7d4e8cff488680c54eec236e",
    ),
    (2, 1.5, 33.0, 7): (
        "004e354134a0982e0a8129f11dd290eae812a3709c8e5d8e57a09d3c8d697ebb",
        "43451c3da4af034ce7ca89778fd337da1fb86b7948ee38d598c53f39b0592337",
        "db3d923957f2dd9403aeec8b40cec56638c907e8d1a96a1d1b26fdd9be6ce352",
        "c8ad35208211f3d714dd3beba336c5fcfcae4542d3ef8d754e3fd021aa9bc582",
        "6cbe919f67803188dfd795b2ea1e1279ef1152d4e5ed74dd6f8ecce2a12ff869",
        "fb0450d0d854412dc8fdaafeaee8617e8918ed390de1dbd96596ff32621e78da",
        "b68834082e5f2fe2fe811fb126803295b83403ce3bfec33d52d5fe5ea057d417",
        "93af94437a6d02acae4625b6cc7a0b5ddf032378aefffff16043a6e1560ac94a",
    ),
    (2, 1.5, 33.0, 1001): (
        "004e354134a0982e0a8129f11dd290eae812a3709c8e5d8e57a09d3c8d697ebb",
        "d3c56444d3465d6134b0642f87a5527668ca14ae23cd68e67fa35c2bd91bfae0",
        "db3d923957f2dd9403aeec8b40cec56638c907e8d1a96a1d1b26fdd9be6ce352",
        "c8ad35208211f3d714dd3beba336c5fcfcae4542d3ef8d754e3fd021aa9bc582",
        "6cbe919f67803188dfd795b2ea1e1279ef1152d4e5ed74dd6f8ecce2a12ff869",
        "fb0450d0d854412dc8fdaafeaee8617e8918ed390de1dbd96596ff32621e78da",
        "91b580b32679653fe12cf5a76433c7bf786f45feb556b786c82d7d856fbf9204",
        "26b3948f2822b7211434c9779ebd972e737008b25625764061af8fb7d2c7f99c",
    ),
    (2, 7.4, 0.0, 7): (
        "26566f9b036c2040e63c5ba820b9d179b8ebaad3956a5d02090fe76a3f543083",
        "e4a4c048d6a93422ef6aab4bd09306e5fef4ab9fc264e0d26ee45bd89b9fa9d0",
        "4ba140eb2fe00d08900859682e68d39d00bd330073f82904f5fdcd2f0482fef3",
        "c8ad35208211f3d714dd3beba336c5fcfcae4542d3ef8d754e3fd021aa9bc582",
        "0eb0a01814c371fae987469a218a1f8131fca499f38eacb756d8a6e4f8f6ad87",
        "c237edd3f10ea04980c9a27888aa1d324568441d41fc5bd9d8d18af91ba2aa95",
        "c95c570a7539994063acf8110126cd4c3b323a43857a18afed44d10c7cede837",
        "d61b89d72ad21f2556d5cb8592050908413f73f75c6c047d045057584ff8e9ce",
    ),
    (2, 7.4, 0.0, 1001): (
        "26566f9b036c2040e63c5ba820b9d179b8ebaad3956a5d02090fe76a3f543083",
        "b825fae0c2e7defcc4144327612aed608e2dedebced8916302c851eb22833752",
        "4ba140eb2fe00d08900859682e68d39d00bd330073f82904f5fdcd2f0482fef3",
        "c8ad35208211f3d714dd3beba336c5fcfcae4542d3ef8d754e3fd021aa9bc582",
        "0eb0a01814c371fae987469a218a1f8131fca499f38eacb756d8a6e4f8f6ad87",
        "c237edd3f10ea04980c9a27888aa1d324568441d41fc5bd9d8d18af91ba2aa95",
        "33948ff16dd9fb328304b9414024c529b535d1f0dfe5e14a38e8f23e398499af",
        "038ec8e7fe975fa4fbdf891ef88ad177a2c0139b1e912b8abcb81e8ac6db3409",
    ),
    (2, 7.4, 33.0, 7): (
        "3262fb1714f82c93743a644e7e3bf23b5f83c6ac1b2d9ed8f3f2ef8da2e47e60",
        "e4a4c048d6a93422ef6aab4bd09306e5fef4ab9fc264e0d26ee45bd89b9fa9d0",
        "a42258111b44f8395f7d523a306aba63c156138e17b85ceeef1424c28e69a79c",
        "c8ad35208211f3d714dd3beba336c5fcfcae4542d3ef8d754e3fd021aa9bc582",
        "de22aa8ee3305f8fd17405b353c9438727adc0de604fd2d99326c209d1e99bf6",
        "83a39a5e3ca234c8f8ea02ecba564c6bb169bc5220f3899e98a014e6fb3bafac",
        "96f2a2281b3127f3bea6432125ff4971c9ac42d194c182090358bfe43b140e8c",
        "b608e8e02ea3651c056cb4f1e877d6f07aaf8691de176603a0e553b09b74f5bf",
    ),
    (2, 7.4, 33.0, 1001): (
        "3262fb1714f82c93743a644e7e3bf23b5f83c6ac1b2d9ed8f3f2ef8da2e47e60",
        "b825fae0c2e7defcc4144327612aed608e2dedebced8916302c851eb22833752",
        "a42258111b44f8395f7d523a306aba63c156138e17b85ceeef1424c28e69a79c",
        "c8ad35208211f3d714dd3beba336c5fcfcae4542d3ef8d754e3fd021aa9bc582",
        "de22aa8ee3305f8fd17405b353c9438727adc0de604fd2d99326c209d1e99bf6",
        "83a39a5e3ca234c8f8ea02ecba564c6bb169bc5220f3899e98a014e6fb3bafac",
        "189f46907064d1528b84d6b90f31149f1ee1463b5c58673993e09e55fe3f9239",
        "3123fef9796e2abd0ff27b4fcc88d5997848255b04ac57f8fd27ca2f6ce4d205",
    ),
}


@pytest.mark.parametrize(("seed", "stroke", "theta", "eta_steps"), sorted(DIGESTS))
def test_demo_output_bytes_are_pinned(tmp_path, capsys, seed, stroke, theta, eta_steps):
    argv = [
        "demo", "--outdir", str(tmp_path), "--seed", str(seed), "--stroke", str(stroke),
        "--theta-deg", str(theta), "--eta-steps", str(eta_steps),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == list(FILES)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in FILES}
    assert got == dict(zip(FILES, DIGESTS[seed, stroke, theta, eta_steps]))
