import json

import pytest

import cli_manifest


def test_seeded_cli_outputs_match_the_manifest():
    manifest = json.loads(cli_manifest.MANIFEST.read_text(encoding="utf-8"))
    if manifest["environment"] != cli_manifest.environment():
        pytest.skip(f"manifest made on {manifest['environment']}, "
                    f"this is {cli_manifest.environment()}")
    assert cli_manifest.sha256(cli_manifest.STDIN) == manifest["stdin"], "the test sample moved"
    assert sorted(manifest["commands"]) == sorted(cli_manifest.COMMANDS)
    moved = [command for command in cli_manifest.COMMANDS
             if cli_manifest.run(command) != manifest["commands"][command]]
    assert not moved, "seeded output moved for:\n" + "\n".join(moved)
