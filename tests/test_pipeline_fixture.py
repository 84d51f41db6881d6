import json

from pipeline_fixture import FIXTURE, REGENERATE, environment, run_pipeline


def test_the_pipeline_writes_the_bytes_and_metrics_the_fixture_pins(tmp_path):
    expected = json.loads(FIXTURE.read_text())
    here = environment()
    assert here == expected["environment"], (
        f"the fixture was written under {expected['environment']}, this run is under {here}; "
        f"its bytes hold only there. Run `{REGENERATE}` on a commit whose outputs are known good")
    got = run_pipeline(tmp_path)
    moved = sorted(name for name in expected["files"].keys() | got["files"].keys()
                   if expected["files"].get(name) != got["files"].get(name))
    assert not moved, (f"the pipeline's output moved in {moved}; if the change is intended, "
                       f"run `{REGENERATE}` and say so in CHANGES.md")
    moved = sorted(name for name in expected["reports"].keys() | got["reports"].keys()
                   if expected["reports"].get(name) != got["reports"].get(name))
    assert not moved, (f"the metrics of {moved} moved; if the change is intended, "
                       f"run `{REGENERATE}` and say so in CHANGES.md")
