import identity
from cohkit import cli, measures, states


def _rows(**digests):
    return [{"group": key.split("__")[0], "row": key.split("__")[1], "sha256": sha, "stderr": err}
            for key, (sha, err) in digests.items()]


PARENT = _rows(audit__a=("01", ""), audit__b=("02", ""), gates__d1=("03", "error: old\n"), search__x=("04", ""))


def test_identical_trees_report_every_group_equal():
    lines, ok = identity.compare(PARENT, PARENT)
    assert ok and len(lines) == 4
    assert all(line.endswith(", equal") for line in lines[:3])
    assert lines[-1] == "identical apart from the declared changes"


def test_a_changed_row_is_named_and_fails_unless_declared():
    change = _rows(audit__a=("01", ""), audit__b=("02", ""), gates__d1=("0f", "error: new\n"), search__x=("04", ""))
    lines, ok = identity.compare(PARENT, change)
    assert not ok
    assert "  gates:d1 differs (NOT EXPECTED)" in lines
    assert "    parent stderr: error: old" in lines and "    change stderr: error: new" in lines
    for declared in ({"gates"}, {"gates:d1"}):
        lines, ok = identity.compare(PARENT, change, declared)
        assert ok and "  gates:d1 differs (expected)" in lines, declared
    lines, ok = identity.compare(PARENT, change, {"gates:d1", "audit:a"})
    assert ok and "declared but unchanged: audit:a" in lines


def test_a_row_on_one_side_only_is_a_difference():
    lines, ok = identity.compare(PARENT, PARENT[:-1])
    assert not ok
    assert lines[lines.index("  search:x differs (NOT EXPECTED)") + 1] == "    change: absent"
    assert lines[-4].startswith("search: 1 parent rows ") and ", 0 change rows " in lines[-4]


def test_a_change_row_that_raised_fails_even_when_declared():
    raised = {**PARENT[2], "sha256": "0e", "stderr": "uncaught MemoryError: no room\n", "raised": True}
    lines, ok = identity.compare(PARENT, [*PARENT[:2], raised, PARENT[3]], {"gates:d1"})
    assert not ok and lines[-2:] == ["change rows that raised: gates:d1", "UNEXPECTED DIFFERENCES"]
    assert "  gates:d1 differs (expected)" in lines and "    change stderr: uncaught MemoryError: no room" in lines
    # the parent may raise where the change rejects the input
    lines, ok = identity.compare([*PARENT[:2], raised, PARENT[3]], PARENT, {"gates:d1"})
    assert ok and not any(line.startswith("change rows that raised") for line in lines)


def test_a_pattern_declares_every_row_it_matches_and_no_other():
    names = ["ibiqc-C2sel-unital-probe-d2-s0", "ibiqc-C2sel-unital-d2-s0", "l1-C2avg-none-probe-d32-s11",
             "re-C3-none-probe-d2-s0"]
    parent = [{"group": g, "row": r, "sha256": "01", "stderr": ""} for g in ("audit", "replay") for r in names]
    change = [{**row, "sha256": "02"} if row["group"] == "audit" and "probe" in row["row"] else row
              for row in parent]
    lines, ok = identity.compare(parent, change, {"audit:*-C2*-probe-*", "replay:*-C2*-probe-*"})
    assert not ok
    assert "  audit:ibiqc-C2sel-unital-probe-d2-s0 differs (expected)" in lines
    assert "  audit:l1-C2avg-none-probe-d32-s11 differs (expected)" in lines
    assert "  audit:re-C3-none-probe-d2-s0 differs (NOT EXPECTED)" in lines
    assert "declared but unchanged: replay:*-C2*-probe-*" in lines
    lines, ok = identity.compare(parent, change, {"audit:*-C2*-probe-*", "audit:re-C3-*"})
    assert ok and not any("declared but unchanged" in line for line in lines)



def _package_form(rows):
    return [(m, cli.CONDITION_BY_FLAG[c], cli.CLASS_BY_FLAG.get(cls), probe) for m, c, cls, probe in rows]


def test_the_battery_inputs_are_the_package_tables():
    # the battery writes its inputs as literals, so a table change without a battery change fails here
    assert len(identity.AUDIT_ROWS) == 60
    assert _package_form(identity.AUDIT_ROWS) == list(cli.EXPECTED_VERDICTS)
    d32 = _package_form(identity.AUDIT_D32_ROWS)
    assert len(set(d32)) == 5 and set(d32) <= set(cli.EXPECTED_VERDICTS)
    assert identity.METRICS == measures.METRICS
    assert identity.CHANNEL_FAMILIES == states.OPERATION_CLASSES
