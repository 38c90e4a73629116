import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from coinwalk import cli
from coinwalk.engine import NumericalError, SiteDistribution, WalkConfig
from coinwalk.verify import run_suite

REPO = Path(__file__).resolve().parent.parent


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


SYM_COIN = "c=0.7071067811865476,d=0.7071067811865476i"

#: sha256 of 24-step cp-scheme outputs, keyed "<output> m=<m> p=<p> <coin>".
#: Recorded from a CP map computed on the full dense window, so they hold the
#: sublattice storage to the same rounding.
CP_SHA256 = {
    "csv m=1 p=0.25 symmetric": "0623ba362ae0255561c192ee1879a83bdc2e23e15198e3bb73b109dbecc8785f",
    "json m=1 p=0.25 symmetric": "4940abea4cef4ca0d272f424641808d4c70dfa218087df27e6f997fafa07dd8b",
    "entropy m=1 p=0.25 symmetric": "c3d273cdbe25bd7c1abf53ac23ba20f6ade1d04d7975b90a533ea64c6698f3a8",
    "csv m=1 p=0.25 c=0,d=1": "0d550f860dc05be4fba3d6075748d180584e5698a5058c7bab558460356af4bd",
    "json m=1 p=0.25 c=0,d=1": "c98c32c105dc52ed95ed4040f57a45d1a77c0c607ba5a67518b611955bd7326e",
    "entropy m=1 p=0.25 c=0,d=1": "dc60f4f5d332d278f85b2149e556f5f842f3604dc449327d1738a833f6555f58",
    "csv m=1 p=0.5 symmetric": "a5fc1f151bbad12c24628ca8443d34b4eee8acd3120ed482a92a8ad085eb0c11",
    "json m=1 p=0.5 symmetric": "99543b77905b037c7a4714199a0928b13fa114441cc655c4dda7e09535590f16",
    "entropy m=1 p=0.5 symmetric": "d1d8ff4aced5cd4d5fbbd5296e2d71c6f19345fe81bd0f7d5997c87dca55799d",
    "csv m=1 p=0.5 c=0,d=1": "fac79e881da712a19fdb9d414de11f1eb0a38db1efb147cc8616593a436a2685",
    "json m=1 p=0.5 c=0,d=1": "7bfb3f2bfe548e9130cbfb7517d72dd0623cb455ad3107b33cb29cda40d5c4f8",
    "entropy m=1 p=0.5 c=0,d=1": "dfad9d360acc7d3ba0331e045b0ba5ee01933a25857a4dbf16e19b222218ff44",
    "csv m=2 p=0.25 symmetric": "1532c3d89a935be47a17396709cf5c3a9ad6933174f4415dabfa207347228cbd",
    "json m=2 p=0.25 symmetric": "fb3f414f2794b127cb381de1b617a7cb449c85881a5d05a3dc821323c91f755b",
    "entropy m=2 p=0.25 symmetric": "7c6f3e6c869bcc5eec84661fe06b9e16169f9c8c0ac0013900a2d281827c60bc",
    "csv m=2 p=0.25 c=0,d=1": "f533391bdca756fb94f74b8a960b687f43c12de85d833bf24aa03a0574e14e6d",
    "json m=2 p=0.25 c=0,d=1": "3f1d28dd3730439da9263656c2ee72695e983dac1a22324ff001450bca7cd211",
    "entropy m=2 p=0.25 c=0,d=1": "7a3e35b32402d9c2739d6c40d86eeaf45a69ba57664695c5e91b082fa10a878c",
    "csv m=2 p=0.5 symmetric": "0f230c979f6c4f723f3351d4d7843e14e8f37c18e77688be6536bb9cab7727d0",
    "json m=2 p=0.5 symmetric": "bf0ff4eb732b991f91904b2912314ecec6ff3cd80216f149c531a549ac2749ab",
    "entropy m=2 p=0.5 symmetric": "950580480d40a6bfc0bd24b35788ef9bf3a3749bac317130c00d05838bc0aa35",
    "csv m=2 p=0.5 c=0,d=1": "450a56c272af554b1a6453458bda86e8b2c8ee3aa8de1037011b56b753196c13",
    "json m=2 p=0.5 c=0,d=1": "ce02c11e8cb89e966c1277ac76658c9cb4d3f4ce671ab8c77d38c99fcbba2d49",
    "entropy m=2 p=0.5 c=0,d=1": "4f632f2753bbad762dca5bcc9e17e1029e1cb58a715d176335a69f7019623ae6",
    "csv m=3 p=0.25 symmetric": "768bbfb44a3ba0f2cf5b797766a1419ce09cbf98fcb17c882f08b33e97ad56c8",
    "json m=3 p=0.25 symmetric": "e9562e8526bc2b8316255a7e1763fdeafa1c6de945f3b5abf4102a33fe9575a3",
    "entropy m=3 p=0.25 symmetric": "f2b477ec92afe74345b7fcf1c6bdce4dc75a7511f9f00b60553f8c76a509fe3c",
    "csv m=3 p=0.25 c=0,d=1": "98ac0a8f34052e5e3ac8ca8c8d66ea5d1a5b75b0090660f227b7a631e56ff252",
    "json m=3 p=0.25 c=0,d=1": "adf0605b615717fc8d5833c47dd4e29990e98a4fe9f721989acf2e83b8dd697b",
    "entropy m=3 p=0.25 c=0,d=1": "07138f2f69c62e2645f8b60401ca6ce462e8f78b7ee17877f7df23672ddd8f42",
    "csv m=3 p=0.5 symmetric": "310fa5acfb332c0cda8a25fadcaada6c33fe4cc75d0219c730931a30f20b8a18",
    "json m=3 p=0.5 symmetric": "b886c32d3191e7c8aa58289daf0c25ee6b5a0532fbe13f2bc8f6dff297057387",
    "entropy m=3 p=0.5 symmetric": "711d2b5ba7160a954d04ec52c3388ccde104be9d08b0f06f7fd0622f619845fa",
    "csv m=3 p=0.5 c=0,d=1": "c1de79b884b1efb515f0dcb0e0a9376d0c04e80cdbf05c9283ccefc11c749da7",
    "json m=3 p=0.5 c=0,d=1": "f84a26ec6a65eb3473ac06252643942e94184859e400163b54fed7f9ce4538de",
    "entropy m=3 p=0.5 c=0,d=1": "bc354e9e34c9467d50004328147d69f86bde583a8e4598560c3630d755e246ee",
    "csv m=2 p=1 symmetric": "e44c501bcc927033c72af207961fa5455fcd453811795739bfbf75feda5a0b6f",
    "json m=2 p=1 symmetric": "1be8348bbf1b6ddb4fb182937e81dacac4554617cbac799166b7bd44eac936d3",
    "entropy m=2 p=1 symmetric": "d2e8251dc088418bf2a21c4d4bf4f1accc57be4e7fd3b79086f47dc8b53cca72",
    "csv m=3 p=1 symmetric": "4b14f430b956781c4b4ce3f6f1a487f582969724f0fa1d8d2a2a9a6937e108a3",
    "json m=3 p=1 symmetric": "b9a633e2f215f4d6fa335cb797d7deac2fa4a571b1af4d2b06313de18c014338",
    "entropy m=3 p=1 symmetric": "7e624329eee4360364738218406886e6469e60a201c5a6510be544aba95e2b03",
}
CP_OUTPUTS = {
    "csv": ["simulate", "--emit", "csv"],
    "json": ["simulate", "--emit", "json"],
    "entropy": ["analyze", "entropy"],
}
CP_COINS = {"symmetric": ["--symmetric"], "c=0,d=1": ["--coin", "c=0,d=1"]}

#: sha256 of 40-step global, prompt and kernel outputs, keyed
#: "<output>-<scheme> p=<p> <coin>".  Recorded while every CSV value was
#: printed by its own ``_fmt`` call and the global walk stacked fresh rows.
TRAJECTORY_SHA256 = {
    "csv-global p=0.25 symmetric": "6e557ee0bafa770304668701947000f5a4a8c5d537a9eed65cbd4a945c624004",
    "csv-global p=0.25 c=0,d=1": "67bd9e879f755c19dabdded686216703fdd3179f13be54130a1c9fbf5d4ab280",
    "csv-global p=0.5 symmetric": "4464975473eb8c995a34c94cd56c4fe9b2234f1c11b96b0f363830e940baa25d",
    "csv-global p=0.5 c=0,d=1": "31ca43b9f5fde00c0d789e058caae4bfe1562dcfc1264442083e95789dc7d96c",
    "csv-prompt p=0.25 symmetric": "b53af2a21cb8ff419b000ad92217f9d4b444fe3036b093e4ad98084f432f678f",
    "csv-prompt p=0.25 c=0,d=1": "af5cfe6fd6f182ecd326b8402423679dba05358e3619c2155aaae418f3453be8",
    "csv-prompt p=0.5 symmetric": "c72cfa489d6af3c91db789e55ed37bdddf936bc39dc5de7f4e9b30f4461c05fd",
    "csv-prompt p=0.5 c=0,d=1": "c72cfa489d6af3c91db789e55ed37bdddf936bc39dc5de7f4e9b30f4461c05fd",
    "csv-kernel p=0.25 symmetric": "a5f0303831cb29122835880fc70e4e9d4413e8ff5ee943d045006b7c5e15a2a9",
    "csv-kernel p=0.25 c=0,d=1": "0744c7ae830aa126323ec3ed0ae8ed5e1b8914ee4c1898acc1c82e473fe270f8",
    "csv-kernel p=0.5 symmetric": "db6ef46d3912c23a6432d1cbf2a9a4ff9da8290419ef7fe7d9cd7c13feca183c",
    "csv-kernel p=0.5 c=0,d=1": "4e26ff382edac828c11d0769b4a1688dac92104ca6ac20f51c356d2bdaf61d93",
    "lorenz-global p=0.25 symmetric": "6a7d66852fc877cbbb743746bc825b1a0617bc6ef2d635366b13c7c1bf68d18e",
    "lorenz-global p=0.25 c=0,d=1": "8e9a7910bd8307fd317a34bc7b8d9e5d362abe0dcd2434d308e3342a41e4303b",
    "lorenz-global p=0.5 symmetric": "69e14d3a81993c70bbdc9cc3a33ca0b5342cb194f0b9b93099ba10da913c9bd4",
    "lorenz-global p=0.5 c=0,d=1": "a9edb170b614a543287c29e4286c95c618fb43147fc35e044164656a368a2ead",
    "majorize-global p=0.25 symmetric": "0d10495f01daaf924bfdb152513fb5535f3e94016b216846cd6decbf356ee257",
    "majorize-global p=0.25 c=0,d=1": "459c3a0e06116ec054e19e2e887a56a6a532d5415f97df0cc36adc20a3561683",
    "majorize-global p=0.5 symmetric": "7fb46260fa6f050110fcb9560441fe889c61c5b18142140a564a934585e3fd4f",
    "majorize-global p=0.5 c=0,d=1": "729e16fdb895958cb2d9033ae22d1bd35b50580a320be27e8c4e052e5bc6cd11",
}
TRAJECTORY_OUTPUTS = {
    "csv": ["simulate", "--emit", "csv"],
    "lorenz": ["analyze", "lorenz"],
    "majorize": ["analyze", "majorize"],
}

#: sha256 of further outputs, keyed by name: (arguments without --out, digest).
#: Recorded while ``analyze`` built one trajectory per branch and the JSON
#: emitter read each site through ``support`` and ``__getitem__``.
#: The ``*-prompt`` entries at p = 1/3 and 3/4 were recorded while the prompt
#: walk convolved parity-compressed arrays instead of stepping a kernel walk.
#: The ``sigma-*`` entries divide by the classical spread 2*sqrt(n*p*(1-p)).
OUTPUT_SHA256 = {
    "sigma-global": ("analyze sigma --scheme global --p 0.25 --symmetric --steps 40", "89fc8b6f7e5b869378d5f5c1aa14df386728a9c762887111e641b644fcf12cb5"),
    "entropy-global": ("analyze entropy --scheme global --p 0.25 --symmetric --steps 40", "faf9502e5a1aa6a5388b19085b029b9ff898adead8b1c1a28dc189fa84a10e1d"),
    "sigma-kernel": ("analyze sigma --scheme kernel --p 0.25 --symmetric --steps 40", "754dcc195fbd80579375a7aea7d952e84552cb01f4e8200d88bff75ca66537de"),
    "entropy-kernel": ("analyze entropy --scheme kernel --p 0.25 --symmetric --steps 40", "4dc70246427f112e2247c82cc9ba8b967551297fe02bf47244eab885c99d35d1"),
    "sigma-cp": ("analyze sigma --scheme cp --p 0.25 --symmetric --steps 40", "d974e03b27fd3aafd3df36573e73941310988f5f0dac1f40e45d4c1501638dd9"),
    "entropy-cp": ("analyze entropy --scheme cp --p 0.25 --symmetric --steps 40", "7a9ab86ee94245bac6ff0bebe7139f6e455d48ff65793fc0de53f936aa48524a"),
    "json-global": ("simulate --emit json --scheme global --p 0.25 --symmetric --steps 40", "9d7c81b056767aea574cf6ba64ef87eaf09f361b7a8d4341597efe8d620a5ee6"),
    "svg-global": ("simulate --emit svg --scheme global --p 0.25 --symmetric --steps 40", "1f12ee6673afe2cfbeb8dc58ffbbe3e110d211f3becee88e5cc3e98e077ffa2d"),
    "json-prompt": ("simulate --emit json --scheme prompt --p 0.25 --symmetric --steps 40", "8dc3a3e4813c17be4818685d0a657cf6eff57e326c276c0b6780cecdbdbf3d8e"),
    "svg-prompt": ("simulate --emit svg --scheme prompt --p 0.25 --symmetric --steps 40", "d51b3fb9d02be6b8ee767d210596881c8facf451696a73e66018b647928e2705"),
    "json-kernel": ("simulate --emit json --scheme kernel --p 0.25 --symmetric --steps 40", "f7ebe73a5815db1df5fed634710dcbc7248eac8b46a7730ba79e8d5512d57fce"),
    "svg-kernel": ("simulate --emit svg --scheme kernel --p 0.25 --symmetric --steps 40", "fd8e11f8ca1792049576e32e08948277954dc0ed6d2825b2dba2476b00878a83"),
    "figure-lorenz": ("figure lorenz --p 0.25 --steps 0,10,40", "2e2607ba688f8e87292776f38708f072a77e6519923e4989b890eabc67e84b22"),
    "figure-lorenz-coin": ("figure lorenz --p 0.25 --coin c=0,d=1 --steps 0,10,40", "baf2586d15927f5ef2c41a8e254893f7f00403132f5337d6ca5b4bb9cb34ab08"),
    "figure-memory-diagram": ("figure memory-diagram --steps 5", "1225655477802b3c8d4beeb9b5b1bc81876252596848ffec73f388ea877cf14f"),
    "csv-prompt p=1/3 c=0,d=1": ("simulate --emit csv --scheme prompt --p 0.3333333333333333 --coin c=0,d=1 --steps 40", "2c2e80debe614e0b02921876e5ef21e8c972ac6e1fa9e7fe5d59a3566b886bee"),
    "entropy-prompt p=1/3 c=0,d=1": ("analyze entropy --scheme prompt --p 0.3333333333333333 --coin c=0,d=1 --steps 40", "ca50efbd8245278946d15705f6b8b05080feae597d29f747e4f498ba02e2a947"),
    "majorize-prompt p=1/3 c=0,d=1": ("analyze majorize --scheme prompt --p 0.3333333333333333 --coin c=0,d=1 --steps 40", "418984585515cdf1cfdbc6583f1969ee8c87673796c3a7180d91716f668da004"),
    "csv-prompt p=1/3 c=0.6,d=0.8i": ("simulate --emit csv --scheme prompt --p 0.3333333333333333 --coin c=0.6,d=0.8i --steps 40", "488896d819153d067e6d9808da59e4e39fb82cc283c197d6c7a00b9996f5f570"),
    "entropy-prompt p=1/3 c=0.6,d=0.8i": ("analyze entropy --scheme prompt --p 0.3333333333333333 --coin c=0.6,d=0.8i --steps 40", "30270ff3c2ada310aa42434c670d6b76f8e269a24319eb276d31c43ac28ba726"),
    "majorize-prompt p=1/3 c=0.6,d=0.8i": ("analyze majorize --scheme prompt --p 0.3333333333333333 --coin c=0.6,d=0.8i --steps 40", "418984585515cdf1cfdbc6583f1969ee8c87673796c3a7180d91716f668da004"),
    "csv-prompt p=3/4 c=0,d=1": ("simulate --emit csv --scheme prompt --p 0.75 --coin c=0,d=1 --steps 40", "3fedfbe78380b58fb5691b70bfacc855286425ca666f32d928960ba3bcbb31bb"),
    "entropy-prompt p=3/4 c=0,d=1": ("analyze entropy --scheme prompt --p 0.75 --coin c=0,d=1 --steps 40", "93d963bf0dff0f31645a29c0c396f0ff97eba1268c9300e4e4f09e108b1ca608"),
    "majorize-prompt p=3/4 c=0,d=1": ("analyze majorize --scheme prompt --p 0.75 --coin c=0,d=1 --steps 40", "418984585515cdf1cfdbc6583f1969ee8c87673796c3a7180d91716f668da004"),
    "csv-prompt p=3/4 c=0.6,d=0.8i": ("simulate --emit csv --scheme prompt --p 0.75 --coin c=0.6,d=0.8i --steps 40", "cb75239bcdc9c682a0fd52a0d54f34c3e187b9b3f812bf1ec255adad17b65588"),
    "entropy-prompt p=3/4 c=0.6,d=0.8i": ("analyze entropy --scheme prompt --p 0.75 --coin c=0.6,d=0.8i --steps 40", "3e5e9f6d133c171965c679465fd2251b3238caff405404a358847af1443f3f7e"),
    "majorize-prompt p=3/4 c=0.6,d=0.8i": ("analyze majorize --scheme prompt --p 0.75 --coin c=0.6,d=0.8i --steps 40", "418984585515cdf1cfdbc6583f1969ee8c87673796c3a7180d91716f668da004"),
}


class TestSimulate:
    def test_global_json_step_six(self, capsys):
        code, out = run(
            ["simulate", "--scheme", "global", "--p", "0.5",
             "--coin", SYM_COIN, "--steps", "6", "--emit", "json"],
            capsys,
        )
        assert code == 0
        record = json.loads(out)
        step6 = record["steps"][6]
        probs = dict(zip(step6["sites"], step6["probs"]))
        assert probs[4] == pytest.approx(0.28125, abs=1e-12)
        assert probs[-4] == pytest.approx(0.28125, abs=1e-12)
        assert record["config"]["scheme"] == "global"

    def test_prompt_csv_step_three(self, capsys):
        code, out = run(
            ["simulate", "--scheme", "prompt", "--p", "0.5", "--steps", "3"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "step,site,probability"
        step3 = sorted(
            float(l.split(",")[2]) for l in lines[1:] if l.startswith("3,")
        )
        assert step3 == pytest.approx([1 / 8, 1 / 8, 3 / 8, 3 / 8], abs=1e-12)

    def test_kernel_zero_steps_single_record(self, capsys):
        code, out = run(
            ["simulate", "--scheme", "kernel", "--m", "2", "--p", "0.5",
             "--symmetric", "--steps", "0"],
            capsys,
        )
        assert code == 0
        assert out.strip().splitlines()[1:] == ["0,0,1"]

    def test_deterministic_output(self, capsys):
        argv = ["simulate", "--scheme", "cp", "--symmetric", "--m", "2",
                "--steps", "4", "--emit", "json"]
        _, first = run(argv, capsys)
        _, second = run(argv, capsys)
        assert first == second

    def test_missing_p_is_argument_error(self, capsys):
        assert cli.main(["simulate", "--scheme", "global", "--steps", "3"]) == 2

    @pytest.mark.parametrize("argv", [
        ["simulate", "--steps", "5"],
        ["analyze", "entropy", "--steps", "5"],
        ["analyze", "lorenz", "--coin", "c=0,d=1", "--steps", "5"],
    ])
    def test_missing_p_says_why(self, capsys, argv):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --p is required unless --symmetric is given\n"
        assert captured.out == ""

    def test_symmetric_with_coin_is_argument_error(self, capsys):
        # --symmetric fixes the coin state, so a --coin beside it would be ignored
        with pytest.raises(SystemExit) as err:
            cli.main(["simulate", "--symmetric", "--coin", "c=0,d=1", "--p", "0.5",
                      "--steps", "3"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert "not allowed with argument --symmetric" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["analyze", "sigma", "--scheme", "cp"],
        ["analyze", "entropy", "--scheme", "kernel"],
        ["simulate", "--scheme", "global"],
    ])
    @pytest.mark.parametrize("coin", ["c=nan,d=1", "c=1,d=nan", "c=1e999,d=0", "c=nani,d=1"])
    def test_nonfinite_coin_state_is_argument_error(self, capsys, argv, coin):
        assert cli.main([*argv, "--p", "0.5", "--coin", coin, "--steps", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: initial coin amplitudes must be finite")
        assert captured.out == ""

    def test_nonfinite_lorenz_coin_state_is_argument_error(self, capsys, tmp_path):
        out = tmp_path / "f.svg"
        assert cli.main(["figure", "lorenz", "--coin", "c=nan,d=1", "--steps", "2",
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: initial coin amplitudes must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("argv,source", [
        (["simulate", "--emit", "csv"], "walk_steps"),
        (["simulate", "--emit", "json"], "walk_steps"),
        (["simulate", "--emit", "svg"], "walk_steps"),
        (["analyze", "entropy"], "walk_steps"),
        (["analyze", "lorenz"], "walk_steps"),
        (["analyze", "majorize"], "walk_steps"),
        (["analyze", "sigma"], "walk_steps"),
        (["figure", "lorenz", "--steps", "0,3"], "walk_steps"),
        (["figure", "entropy", "--steps", "3"], "_global_steps"),
    ], ids=["simulate-csv", "simulate-json", "simulate-svg", "analyze-entropy",
            "analyze-lorenz", "analyze-majorize", "analyze-sigma", "figure-lorenz",
            "figure-entropy"])
    @pytest.mark.parametrize("error,code,prefix", [
        (ValueError, 2, "error: "),
        (NumericalError, 4, "error: numerical failure: "),
    ], ids=["argument", "numerical"])
    def test_failing_trajectory_writes_no_file(self, tmp_path, capsys, monkeypatch,
                                               argv, source, error, code, prefix):
        # every consumer of a walk fails after step 0 with nothing written
        def failing(config, *args):
            yield SiteDistribution.delta()
            raise error("probabilities sum to 2.0, not 1")

        monkeypatch.setattr(cli, source, failing)
        walk = [] if argv[0] == "figure" else ["--p", "0.5", "--steps", "3"]
        path = tmp_path / "walk.out"
        assert cli.main([*argv, *walk, "--out", str(path)]) == code
        assert not path.exists()
        assert cli.main([*argv, *walk, "--out", "-"]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{prefix}probabilities sum to 2.0, not 1\n" * 2

    def test_negative_steps_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["simulate", "--p", "0.5", "--steps", "-1"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv,message", [
        (["simulate", "--p", "0.5", "--m", "0", "--steps", "3"],
         "trace period m must be at least 1"),
        (["verify", "kraus", "--max-steps", "0"], "max-steps must be at least 1"),
    ], ids=["m", "max-steps"])
    def test_count_below_one_is_argument_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.endswith(f"coinwalk: error: {message}\n")
        assert captured.out == ""

    def test_unknown_scheme_rejected(self):
        # the parser only passes the four schemes; a library caller may not
        with pytest.raises(ValueError, match="unknown scheme"):
            cli.walk_steps(WalkConfig.symmetric(), "quantum", 3, 2)

    def test_unwritable_output_is_io_error(self, capsys):
        assert cli.main(["simulate", "--p", "0.5", "--steps", "1",
                         "--out", "/nonexistent-dir/x.csv"]) == 3


class TestCpByteIdentity:
    @pytest.mark.parametrize("key", sorted(CP_SHA256))
    def test_cp_outputs_match_recorded_digests(self, tmp_path, key):
        output, m, p, coin = key.split()
        path = tmp_path / "out"
        argv = CP_OUTPUTS[output] + ["--scheme", "cp", "--m", m[2:], "--p", p[2:],
                                     *CP_COINS[coin], "--steps", "24", "--out", str(path)]
        assert cli.main(argv) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CP_SHA256[key]


class TestTrajectoryByteIdentity:
    @pytest.mark.parametrize("key", sorted(TRAJECTORY_SHA256))
    def test_outputs_match_recorded_digests(self, tmp_path, key):
        name, p, coin = key.split()
        output, scheme = name.split("-")
        path = tmp_path / "out"
        argv = TRAJECTORY_OUTPUTS[output] + ["--scheme", scheme, "--p", p[2:],
                                             *CP_COINS[coin], "--steps", "40",
                                             "--out", str(path)]
        assert cli.main(argv) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == TRAJECTORY_SHA256[key]

    def test_long_global_csv_matches_benchmark_digest(self, tmp_path):
        # the benchmark's recorded sha256 of this 1200-step trajectory (read only)
        recorded = json.loads(
            (REPO / "perfbench" / "reference" / "cli_sha256.json").read_text()
        )
        path = tmp_path / "walk.csv"
        cli.main(["simulate", "--scheme", "global", "--steps", "1200", "--emit", "csv",
                  "--p", "0.5", "--symmetric", "--out", str(path)])
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == recorded["simulate-global-csv|p=0.5,coin=symmetric"]

    def test_long_entropy_matches_benchmark_digest(self, tmp_path):
        # the benchmark's recorded sha256 of this 1500-step table (read only);
        # its classical column is the prompt walk at the benchmark's size
        recorded = json.loads(
            (REPO / "perfbench" / "reference" / "cli_sha256.json").read_text()
        )
        path = tmp_path / "entropy.csv"
        cli.main(["analyze", "entropy", "--steps", "1500", "--p", "0.3333333333333333",
                  "--coin", "c=0,d=1", "--out", str(path)])
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == recorded["entropy-global|p=0.3333333333333333,coin=c=0,d=1"]

    @pytest.mark.parametrize("key", sorted(OUTPUT_SHA256))
    def test_more_outputs_match_recorded_digests(self, tmp_path, key):
        args, digest = OUTPUT_SHA256[key]
        path = tmp_path / "out"
        assert cli.main(args.split() + ["--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


#: Floats whose 17-digit forms are edge cases: signed zero, the smallest
#: subnormal, the float below 1, exponent forms and huge magnitudes.
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1 - 2**-53,
                1e-05, 1e-4, 1e16, 1.7976931348623157e308, 0.1, 1.0 / 3.0]
_ANY_FLOAT = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False))


class TestRows:
    @given(st.integers(0, 5000),
           st.lists(st.tuples(st.integers(-10**6, 10**6), _ANY_FLOAT), max_size=30))
    @example(3, [(s, x) for s, x in enumerate(_EDGE_FLOATS)])
    @example(0, [])
    def test_site_rows_match_per_value_lines(self, step, rows):
        sites = [s for s, _ in rows]
        probs = [x for _, x in rows]
        old = "".join(f"{step},{site},{cli._fmt(p)}\n" for site, p in rows)
        assert cli._rows(step, "%d,%.17g", sites, probs) == old

    @given(st.integers(0, 5000), st.lists(st.tuples(_ANY_FLOAT, _ANY_FLOAT), max_size=30))
    @example(7, list(zip(_EDGE_FLOATS, reversed(_EDGE_FLOATS))))
    def test_lorenz_rows_match_per_value_lines(self, step, pairs):
        fractions = [f for f, _ in pairs]
        gammas = [g for _, g in pairs]
        old = "".join(f"{step},{n},{cli._fmt(f)},{cli._fmt(g)}\n"
                      for n, (f, g) in enumerate(pairs))
        got = cli._rows(step, "%d,%.17g,%.17g", range(len(pairs)), fractions, gammas)
        assert got == old


class TestWrite:
    @pytest.mark.parametrize("text", ["", "a", "0,1,0.5\n" * 5, "x" * 21])
    def test_chunked_output_reassembles(self, tmp_path, capsys, monkeypatch, text):
        monkeypatch.setattr(cli, "_WRITE_CHUNK", 7)
        path = tmp_path / "out"
        cli._emit(str(path), [text])
        cli._emit("-", iter([text[:5], "", text[5:]]))
        assert path.read_text() == text
        assert capsys.readouterr().out == text


#: Bounds on the tracemalloc peak (which numpy reports to) of one command, in
#: MB, each with the peak measured when every step was held at once.  A bound
#: is about twice the streamed peak and at most a third of the held one.
PEAK_MB = {
    # one density matrix (161 stored sites a side) instead of all 81 (held 12.8)
    "analyze sigma --scheme cp --p 0.5 --symmetric --steps 80": 4.2,
    # one or two distributions instead of 601 (held 3.2, 6.2, 6.2)
    "analyze majorize --p 0.5 --symmetric --steps 600": 0.5,
    "analyze entropy --p 0.5 --symmetric --steps 600": 0.5,
    "figure entropy --steps 600": 0.6,
    # the 601 distributions, but one step's rows of text at a time (held 16.2, 22.2)
    "simulate --p 0.5 --symmetric --steps 600": 5.3,
    "analyze lorenz --p 0.5 --symmetric --steps 600": 6.4,
    # the plotted steps only (held 3.3, 3.1)
    "simulate --emit svg --p 0.5 --symmetric --steps 600": 0.7,
    "figure lorenz --p 0.5 --steps 10,600": 0.3,
}


class TestMemory:
    @pytest.mark.parametrize("command", sorted(PEAK_MB))
    def test_peak_allocation_is_bounded(self, tmp_path, command):
        argv = command.split() + ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0  # fills the Kraus-power cache outside the trace
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 1e6 < PEAK_MB[command]


class TestAnalyze:
    def test_sigma_ratios_first_five(self, capsys):
        code, out = run(
            ["analyze", "sigma", "--scheme", "global", "--symmetric",
             "--steps", "5"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "step,scheme,sigma,ratio_to_classical"
        ratios = [float(l.split(",")[3]) for l in lines[1:]]
        want = [1, 1, 1, math.sqrt(5) / 2, math.sqrt(8 / 5)]
        assert ratios == pytest.approx(want, abs=1e-12)

    def test_sigma_ratio_of_classical_walk_is_one(self, capsys):
        code, out = run(
            ["analyze", "sigma", "--scheme", "prompt", "--p", "0.25",
             "--coin", "c=0,d=1", "--steps", "40"],
            capsys,
        )
        assert code == 0
        ratios = [float(l.split(",")[3]) for l in out.strip().splitlines()[1:]]
        assert len(ratios) == 40
        assert ratios == pytest.approx([1.0] * 40, abs=1e-12)

    def test_sigma_ratio_without_classical_spread(self, capsys):
        # p = 0: the classical walk does not spread; the global walk does on odd steps
        code, out = run(
            ["analyze", "sigma", "--scheme", "global", "--p", "0", "--symmetric",
             "--steps", "2"],
            capsys,
        )
        assert code == 0
        assert out == ("step,scheme,sigma,ratio_to_classical\n"
                       "1,global,0.99999999999999989,inf\n2,global,0,nan\n")

    def test_entropy_endpoint(self, capsys):
        code, out = run(
            ["analyze", "entropy", "--symmetric", "--steps", "9"], capsys
        )
        assert code == 0
        last = out.strip().splitlines()[-1].split(",")
        assert last[0] == "9"
        assert float(last[2]) == pytest.approx(1.9295, abs=5e-4)

    def test_majorize_kernel_chain_all_ordered(self, capsys):
        code, out = run(
            ["analyze", "majorize", "--scheme", "kernel", "--m", "2",
             "--symmetric", "--steps", "30"],
            capsys,
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 30
        assert all(r.split(",")[2] == "FirstMajorizes" for r in rows)

    def test_majorize_sorts_each_step_once(self, tmp_path, monkeypatch):
        from coinwalk import analysis

        calls = []
        partial_sums = analysis._partial_sums
        monkeypatch.setattr(analysis, "_partial_sums",
                            lambda dist: calls.append(1) or partial_sums(dist))
        out = tmp_path / "majorize.csv"
        code = cli.main(["analyze", "majorize", "--scheme", "global", "--symmetric",
                         "--steps", "1500", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 1501  # header and 1500 links
        assert len(calls) == 1501

    def test_lorenz_schema(self, capsys):
        code, out = run(
            ["analyze", "lorenz", "--symmetric", "--steps", "2"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "step,n,n_over_N,gamma"
        assert lines[1].startswith("0,0,")


class TestFigure:
    def test_lorenz_polylines_match_csv_numbers(self, capsys, tmp_path):
        from coinwalk import analysis, svgplot
        from coinwalk.cli import lorenz_figure_series
        from coinwalk.engine import WalkConfig

        path = tmp_path / "lorenz.svg"
        code = cli.main(
            ["figure", "lorenz", "--p", "0.5", "--steps", "6,7,8,9",
             "--out", str(path)]
        )
        assert code == 0
        svg = path.read_text()
        assert svg.count("<polyline") == 4
        series = lorenz_figure_series(WalkConfig.symmetric(), [6, 7, 8, 9],
                                      "global", 2)
        expected = svgplot.line_chart(
            series,
            title="Lorenz curves of successive walk distributions",
            xlabel="fraction of slots",
            ylabel="cumulative probability",
        )
        assert svg == expected

    def test_entropy_figure_series_count(self, capsys, tmp_path):
        path = tmp_path / "entropy.svg"
        code = cli.main(
            ["figure", "entropy", "--p", "0.3333,0.5,0.75", "--steps", "100",
             "--out", str(path)]
        )
        assert code == 0
        assert path.read_text().count("<polyline") == 4

    def test_memory_diagram_column_groups(self, capsys, tmp_path):
        path = tmp_path / "memory.svg"
        code = cli.main(["figure", "memory-diagram", "--steps", "4",
                         "--out", str(path)])
        assert code == 0
        assert path.read_text().count('class="column"') == 5

    @pytest.mark.parametrize("which,options,error", [
        ("memory-diagram", ["--steps", ","], "--steps: expected a comma list of integers"),
        ("entropy", ["--steps", ","], "--steps: expected a comma list of integers"),
        ("lorenz", ["--steps", ","], "--steps: expected a comma list of integers"),
        # an empty bias list would otherwise plot the default biases
        ("entropy", ["--p", ",", "--steps", "4"], "--p: expected a comma list of numbers"),
    ], ids=["memory-diagram", "entropy", "lorenz", "entropy-p"])
    def test_empty_step_list_is_argument_error(self, capsys, tmp_path, which, options,
                                               error):
        with pytest.raises(SystemExit) as err:
            cli.main(["figure", which, *options, "--out", str(tmp_path / "f.svg")])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: coinwalk figure")
        assert f"argument {error}, got ','" in captured.err
        assert not (tmp_path / "f.svg").exists()

    @pytest.mark.parametrize("which", ["memory-diagram", "entropy"])
    def test_step_list_is_argument_error(self, capsys, tmp_path, which):
        # these figures draw one step count, so a list would be read in part
        with pytest.raises(SystemExit) as err:
            cli.main(["figure", which, "--steps", "20,40", "--out", str(tmp_path / "f.svg")])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage: coinwalk figure {which}")
        assert "argument --steps: expected one step count, got '20,40'" in captured.err
        assert not (tmp_path / "f.svg").exists()

    @pytest.mark.parametrize("options", [
        ["entropy", "--scheme", "cp"],
        ["entropy", "--coin", "c=0,d=1"],
        ["entropy", "--symmetric"],
        ["entropy", "--m", "3"],
        ["memory-diagram", "--p", "0.3"],
        ["memory-diagram", "--scheme", "cp"],
        ["lorenz", "--symmetric"],
        ["lorenz", "--p", "0.25,0.5"],
    ])
    def test_option_the_figure_does_not_read_is_argument_error(self, capsys, tmp_path,
                                                               options):
        # each figure declares only the options it reads, so none is ignored
        out = tmp_path / "f.svg"
        with pytest.raises(SystemExit) as err:
            cli.main(["figure", *options, "--steps", "4", "--out", str(out)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: coinwalk")
        assert options[1] in captured.err
        assert not out.exists()

    def test_figure_determinism(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for path in (a, b):
            cli.main(["figure", "entropy", "--steps", "20", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()


class TestVerify:
    def test_kraus_suite_passes(self, capsys):
        code, out = run(["verify", "kraus", "--max-steps", "20"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert all(c["max_residual"] < 1e-12 for c in report["checks"])

    def test_memory_suite_passes(self, capsys):
        code, out = run(["verify", "memory", "--max-steps", "12"], capsys)
        assert code == 0
        report = json.loads(out)
        strict = [c for c in report["checks"] if not c["informational"]]
        assert strict and all(c["max_residual"] < 1e-10 for c in strict)

    def test_prop2_suite_reports_divergence_informationally(self, capsys):
        code, out = run(["verify", "prop2", "--max-steps", "5"], capsys)
        assert code == 0
        report = json.loads(out)
        info = {c["name"] for c in report["checks"] if c["informational"]}
        assert "kernel-cp-divergence" in info
        assert "cp-walk-first-iteration-moment" in info

    def test_prop2_beyond_fifteen_steps_reports_failure(self, tmp_path):
        # Phi^n for n >= 15 drifts above 1e-12 in its sum; the report is still written
        path = tmp_path / "prop2.json"
        code = cli.main(["verify", "prop2", "--max-steps", "16", "--out", str(path)])
        assert code == 1
        report = json.loads(path.read_text())
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        assert failed == ["binomial-solution"]
        binomial = next(c for c in report["checks"] if c["name"] == "binomial-solution")
        assert 1e-10 < binomial["max_residual"] < 1e-9

    @pytest.mark.parametrize("steps", ["17", "21"])
    def test_prop2_beyond_sixteen_steps_writes_report(self, tmp_path, steps):
        # the binomial sum's own tolerance follows its rounding bound, so it
        # returns and the check fails with its residual instead of exiting 2
        path = tmp_path / "prop2.json"
        code = cli.main(["verify", "prop2", "--max-steps", steps, "--out", str(path)])
        assert code == 1
        report = json.loads(path.read_text())
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        assert failed == ["binomial-solution"]

    @pytest.mark.parametrize("suite,steps,key", [
        ("all", "12", "verify-all-12|"),
        ("kraus", "20", "verify-kraus-20|"),
    ])
    def test_reports_match_recorded_digests(self, tmp_path, suite, steps, key):
        # the benchmark's recorded sha256 of these reports: rounding-level
        # residuals are printed, so any change in evaluation order shows here
        recorded = json.loads(
            (REPO / "perfbench" / "reference" / "cli_sha256.json").read_text()
        )
        path = tmp_path / "report.json"
        cli.main(["verify", suite, "--max-steps", steps, "--out", str(path)])
        assert hashlib.sha256(path.read_bytes()).hexdigest() == recorded[key]

    @pytest.mark.parametrize("suite,steps,digest", [
        ("analysis", "1", "3932230c40c0abc4724851a8f9f2f5d09efd67d71c9ff546d1e160e07b2bbb4a"),
        ("all", "3", "356fa0a998d4e470d1ea1024a61f306b371481262b42e0a06c77a193db2ee972"),
    ])
    def test_short_horizon_reports_match_recorded_digests(self, tmp_path, suite, steps, digest):
        # below the step-6..9 checkpoints the chains are shorter than the
        # checkpoint windows
        path = tmp_path / "report.json"
        assert cli.main(["verify", suite, "--max-steps", steps, "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_bad_suite_is_argument_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "bogus"])
        assert err.value.code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tolerance_is_argument_error(self, tmp_path, capsys, tol):
        # a NaN or infinite tolerance would be written as invalid JSON
        path = tmp_path / "report.json"
        code = cli.main(["verify", "kraus", "--max-steps", "3", "--tol", tol, "--out", str(path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: tolerance must be finite and nonnegative")
        assert not path.exists()

    @pytest.mark.parametrize("suite,max_steps,match", [
        ("kraus", 0, "max_steps must be at least 1"),
        ("bogus", 3, "unknown suite"),
    ], ids=["max-steps", "suite"])
    def test_run_suite_rejects_bad_arguments(self, suite, max_steps, match):
        # the parser rejects both first; run_suite checks its own callers
        with pytest.raises(ValueError, match=match):
            run_suite(suite, max_steps)

    def test_report_schema(self, capsys):
        _, out = run(["verify", "stochastic", "--max-steps", "6"], capsys)
        report = json.loads(out)
        assert set(report) >= {"suite", "checks", "pass"}
        for check in report["checks"]:
            assert set(check) >= {"name", "params", "max_residual", "pass"}


class TestComplexParsing:
    def test_plain_real(self):
        assert cli.parse_complex("0.5") == 0.5

    def test_a_plus_bi(self):
        assert cli.parse_complex("0.3-0.4i") == 0.3 - 0.4j

    def test_pure_imaginary(self):
        assert cli.parse_complex("0.7071067811865476i") == pytest.approx(
            0.7071067811865476j
        )

    def test_bad_literal_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_complex("zebra")

    def test_coin_missing_an_amplitude_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError, match="c=<complex>,d=<complex>"):
            cli.parse_coin("c=1")

    def test_coin_pair(self):
        c, d = cli.parse_coin(SYM_COIN)
        assert abs(c) ** 2 + abs(d) ** 2 == pytest.approx(1.0, abs=1e-12)
