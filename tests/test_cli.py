"""CLI tests (argument parsing and end-to-end command behaviour)."""

from __future__ import annotations

import argparse

import pytest

from repro.cli import build_parser, main, parse_poly


class TestParsePoly:
    def test_paper_notation(self):
        assert parse_poly("0x82608EDB") == 0x104C11DB7

    def test_full_encoding(self):
        assert parse_poly("0x104C11DB7") == 0x104C11DB7

    def test_small_full_encoding(self):
        assert parse_poly("0x107") == 0x107

    def test_rejects_even(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_poly("0x106")

    def test_rejects_nonpositive(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_poly("0")

    def test_rejects_garbage(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_poly("not-a-poly")


class TestParsePolyNotation:
    """The confirmed seed bug: an odd 32-bit value like 0x8F6E37A1 is
    both a paper implicit-+1 value (degree 32) and a degree-31 full
    encoding; the auto heuristic silently took the paper reading,
    making degree-31 polynomials unreachable from the CLI."""

    AMBIGUOUS = "0x8F6E37A1"

    def test_auto_keeps_paper_reading_but_warns(self):
        with pytest.warns(UserWarning, match="ambiguous"):
            assert parse_poly(self.AMBIGUOUS) == 0x11EDC6F43

    def test_explicit_full_gives_degree_31(self):
        assert parse_poly(self.AMBIGUOUS, "full") == 0x8F6E37A1

    def test_explicit_paper_matches_auto_silently(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parse_poly(self.AMBIGUOUS, "paper") == 0x11EDC6F43

    def test_even_32bit_is_unambiguous_no_warning(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parse_poly("0x82608EDA") == 0x104C11DB5

    def test_paper_applies_to_any_width(self):
        assert parse_poly("0x83", "paper") == 0x107

    def test_full_rejects_even(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_poly("0x106", "full")

    def test_full_rejects_degreeless(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_poly("0x1", "full")

    def test_cli_notation_flag_round_trip(self, capsys):
        assert main(["report", self.AMBIGUOUS, "--notation", "full"]) == 0
        out = capsys.readouterr().out
        assert "0x8f6e37a1" in out
        assert "x^31" in out


class TestCommands:
    def test_report(self, capsys):
        assert main(["report", "0xBA0DC66B"]) == 0
        out = capsys.readouterr().out
        assert "{1,3,28}" in out
        assert "0xba0dc66b" in out

    def test_report_with_breakpoints(self, capsys):
        assert main(["report", "0x107", "--hd-max", "4", "--n-max", "150"]) == 0
        main(["report", "0x107", "--breakpoints", "--hd-max", "4",
              "--n-max", "150"])
        out = capsys.readouterr().out
        assert "HD bands" in out

    def test_hd(self, capsys):
        assert main(["hd", "0x107", "100"]) == 0
        assert "HD = 4" in capsys.readouterr().out

    def test_weights(self, capsys):
        assert main(["weights", "0x107", "50"]) == 0
        out = capsys.readouterr().out
        assert "W2 = 0" in out and "W4 = " in out

    def test_breakpoints(self, capsys):
        assert main(["breakpoints", "0x107", "--hd-max", "4",
                     "--n-max", "150"]) == 0
        out = capsys.readouterr().out
        assert "HD 4: 1 .. 119" in out

    def test_search(self, capsys):
        assert main(["search", "--width", "6", "--target-hd", "3",
                     "--bits", "20"]) == 0
        out = capsys.readouterr().out
        assert "candidates screened" in out

    def test_search_width_guard(self, capsys):
        assert main(["search", "--width", "20"]) == 2

    def test_campaign(self, tmp_path, capsys):
        ckpt = str(tmp_path / "c.json")
        assert main(["campaign", "--width", "6", "--target-hd", "3",
                     "--bits", "20",
                     "--chunk-size", "8", "--checkpoint", ckpt]) == 0
        out = capsys.readouterr().out
        assert "chunks done" in out
        assert (tmp_path / "c.json").exists()

    def test_campaign_parallel(self, tmp_path, capsys):
        ckpt = str(tmp_path / "c.json")
        assert main(["campaign", "--width", "6", "--target-hd", "3",
                     "--bits", "20", "--parallel", "2",
                     "--chunk-size", "8", "--checkpoint", ckpt]) == 0
        out = capsys.readouterr().out
        assert "chunks done" in out
        assert "2 processes" in out
        assert (tmp_path / "c.json").exists()
        # resume recomputes nothing
        assert main(["campaign", "--width", "6", "--target-hd", "3",
                     "--bits", "20", "--parallel", "2",
                     "--chunk-size", "8", "--checkpoint", ckpt,
                     "--resume"]) == 0
        out = capsys.readouterr().out
        assert "4 chunks skipped" in out
        assert "0 chunks computed" in out

    def test_campaign_default_matches_parallel(self, tmp_path, capsys):
        from repro.dist.checkpoint import load as load_checkpoint
        from repro.search.exhaustive import SearchConfig

        one = str(tmp_path / "one.json")
        par = str(tmp_path / "par.json")
        base = ["campaign", "--width", "6", "--target-hd", "3",
                "--bits", "20", "--chunk-size", "8"]
        assert main(base + ["--checkpoint", one]) == 0
        assert "across 1 process\n" in capsys.readouterr().out
        assert main(base + ["--parallel", "2", "--checkpoint", par]) == 0
        capsys.readouterr()
        cfg = SearchConfig.for_bits(6, 3, 20)
        # Same campaign, different process counts: the records (and
        # their canonical JSON, which the checkpoint CRC covers) agree.
        a = load_checkpoint(one, cfg, 8)
        b = load_checkpoint(par, cfg, 8)
        assert a.campaign.to_json() == b.campaign.to_json()
        assert a.quarantined == b.quarantined == set()

    def test_campaign_default_is_durable(self, tmp_path, capsys):
        """Without --parallel the campaign checkpoints as it goes, not
        only at the end: 16 chunks, a save every 8 completions."""
        from repro.obs.events import read_events

        ckpt = str(tmp_path / "c.json")
        log = str(tmp_path / "run.jsonl")
        assert main(["campaign", "--width", "8", "--target-hd", "4",
                     "--bits", "100", "--chunk-size", "8",
                     "--checkpoint", ckpt, "--events", log]) == 0
        capsys.readouterr()
        writes = [
            rec for rec in read_events(log)
            if rec["event"] == "checkpoint.write"
        ]
        assert len(writes) >= 2
        assert writes[0]["chunks_done"] < 16

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_campaign_parallel_must_be_positive(self, count, capsys):
        assert main(["campaign", "--width", "6", "--parallel", count]) == 2
        assert "positive" in capsys.readouterr().err

    def test_campaign_resume_requires_checkpoint(self, capsys):
        assert main(["campaign", "--width", "6", "--target-hd", "3",
                     "--bits", "20", "--resume"]) == 2

    def test_campaign_resume_missing_checkpoint_is_friendly(
        self, tmp_path, capsys
    ):
        """--resume pointed at a nonexistent file must explain itself
        (the seed behaviour silently started a fresh campaign)."""
        missing = str(tmp_path / "nope.ckpt")
        for backend in ([], ["--parallel", "2"]):
            assert main(["campaign", "--width", "6", "--target-hd", "3",
                         "--bits", "20", "--chunk-size", "8",
                         "--checkpoint", missing, "--resume"] + backend) == 2
            err = capsys.readouterr().err
            assert "no checkpoint found" in err
            assert "--checkpoint" in err

    def test_campaign_retry_quarantined(self, tmp_path, capsys):
        """--retry-quarantined grants the checkpoint's quarantined
        chunks a fresh budget: the resumed campaign computes them and
        exits 0."""
        from repro.dist import checkpoint
        from repro.search.exhaustive import SearchConfig
        from repro.search.records import CampaignRecord

        cfg = SearchConfig.for_bits(8, 4, 100)
        ckpt = str(tmp_path / "q.ckpt")
        record = CampaignRecord(
            width=8, data_word_bits=cfg.final_length, target_hd=4
        )
        checkpoint.save(ckpt, record, cfg, 8, quarantined=[0, 1])
        rc = main(["campaign", "--width", "8", "--target-hd", "4",
                   "--bits", "100", "--chunk-size", "8",
                   "--checkpoint", ckpt, "--resume", "--retry-quarantined"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "16/16 chunks done" in out
        assert "16 chunks computed" in out

    def test_campaign_resume_upgrades_a_format3_checkpoint(
        self, tmp_path, capsys
    ):
        """A checkpoint from the format-3 writer resumes, the campaign
        finishes on a fresh run's record, and what it leaves is a
        format-4 manifest with the format-3 file as ``.prev``."""
        import os
        import shutil

        from repro.dist import checkpoint
        from repro.search.exhaustive import SearchConfig

        legacy = os.path.join(
            os.path.dirname(__file__), "dist", "data",
            "checkpoint_v3_indent1.json",
        )
        cfg = SearchConfig.for_bits(6, 4, 20)
        flags = ["campaign", "--width", "6", "--target-hd", "4",
                 "--bits", "20", "--chunk-size", "8"]
        fresh = str(tmp_path / "fresh.json")
        assert main(flags + ["--checkpoint", fresh]) == 0
        ckpt = str(tmp_path / "old.json")
        shutil.copyfile(legacy, ckpt)
        assert main(flags + ["--checkpoint", ckpt, "--resume",
                             "--retry-quarantined"]) == 0
        out = capsys.readouterr().out
        assert "resumed from" in out and "2 chunks skipped" in out
        now = checkpoint.load(ckpt, cfg, 8)
        assert now.format_version == 4 and not now.fell_back
        prev = checkpoint.load(checkpoint.previous_path(ckpt), cfg, 8)
        assert prev.format_version == 3
        # The fixture's two chunks were screened under a (8, 20)
        # cascade, so their kills name 20 bits where the CLI's
        # (8, 12, 20) names 12: the resume keeps what it loaded.
        want = checkpoint.load(fresh, cfg, 8).campaign
        assert set(prev.campaign.results) < set(want.results)
        want.results.update(prev.campaign.results)
        assert now.campaign.to_json() == want.to_json()
        with open(legacy, "rb") as f:
            assert open(checkpoint.previous_path(ckpt), "rb").read() == \
                f.read()

    def test_crc(self, capsys):
        assert main(["crc", "CRC-32/IEEE-802.3",
                     "--hex", "313233343536373839"]) == 0
        assert "0xcbf43926" in capsys.readouterr().out

    def test_catalog(self, capsys):
        assert main(["catalog"]) == 0
        assert "CRC-32C/Castagnoli" in capsys.readouterr().out

    def test_stacked(self, capsys):
        assert main(["stacked", "0x107", "0x11D", "40", "--k-max", "8"]) == 0
        out = capsys.readouterr().out
        assert "joint HD" in out and "degree 16" in out

    def test_compare(self, capsys):
        assert main(["compare", "0x107", "0x11D",
                     "--n-max", "60", "--hd-max", "5"]) == 0
        out = capsys.readouterr().out
        assert "better" in out

    def test_best(self, capsys):
        assert main(["best", "--width", "6", "--bits", "20"]) == 0
        out = capsys.readouterr().out
        assert "best achievable HD" in out and "recommended" in out

    def test_parser_help_builds(self):
        parser = build_parser()
        assert parser.prog == "repro"


class TestFarmCli:
    """Exit-code and usage contracts for ``serve`` / ``work``.  The
    full farm behaviour is covered end-to-end over the loopback
    transport in ``tests/dist/test_net_server.py``; here we pin only
    what argparse and the error paths owe the operator."""

    def test_work_malformed_address_is_usage_error(self, capsys):
        assert main(["work", "not-an-address"]) == 2
        assert "host:port" in capsys.readouterr().err

    def test_work_unreachable_coordinator_exits_1(self, capsys):
        # Port 1 on localhost: connection refused, fast.
        rc = main([
            "work", "127.0.0.1:1", "--id", "w0",
            "--reconnect-base", "0.01", "--max-connect-attempts", "2",
        ])
        assert rc == 1
        assert "giving up after 2 failed connection" in capsys.readouterr().err

    def test_serve_resume_requires_checkpoint(self, capsys):
        assert main(["serve", "--width", "8", "--resume"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_serve_resume_missing_checkpoint_exits_2(self, tmp_path, capsys):
        rc = main([
            "serve", "--width", "8", "--target-hd", "4",
            "--checkpoint", str(tmp_path / "nope.ckpt"), "--resume",
        ])
        assert rc == 2

    def test_serve_resume_corrupt_checkpoint_exits_2(self, tmp_path, capsys):
        from repro.dist import checkpoint
        from repro.dist.faults import corrupt_file
        from repro.search.exhaustive import SearchConfig
        from repro.search.records import CampaignRecord

        cfg = SearchConfig.for_bits(8, 4, 200)
        ckpt = str(tmp_path / "rot.ckpt")
        checkpoint.save(
            ckpt,
            CampaignRecord(width=8, data_word_bits=200, target_hd=4),
            cfg,
            64,
        )
        corrupt_file(ckpt, seed=1)
        rc = main([
            "serve", "--width", "8", "--target-hd", "4",
            "--checkpoint", ckpt, "--resume",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "cannot resume" in err
        assert "every checkpoint generation failed verification" in err

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--width", "8"])
        assert args.host == "127.0.0.1" and args.port == 0
        assert args.lease == 30.0 and args.checkpoint_every == 8
        assert args.worker_fault_budget == 0

    def test_work_defaults(self):
        args = build_parser().parse_args(["work", "localhost:7337"])
        assert args.address == "localhost:7337"
        assert args.id is None and args.max_connect_attempts == 8
