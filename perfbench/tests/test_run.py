from run import check_runs


class _AcceptAll:
    def check(self, argv, stdout):
        return []


def _pass(*stdouts, code=0):
    return {"jobs": [{"code": code, "stderr": "", "stdout": s, "seconds": 1.0} for s in stdouts]}


def test_a_pass_that_prints_other_output_than_the_first_fails_that_job():
    jobs = [["expand", "--genus", "0"], ["expand", "--genus", "1"]]
    problems = check_runs(jobs, [_pass("a\n", "b\n"), _pass("a\n", "c\n")], _AcceptAll(), {})
    assert [bool(p) for p in problems] == [False, False, False, True]


def test_a_nonzero_exit_fails_the_job_in_its_pass_only():
    jobs = [["oracle", "--vertices", "2"]]
    problems = check_runs(jobs, [_pass("x\n"), _pass("x\n", code=2)], _AcceptAll(), {})
    assert [bool(p) for p in problems] == [False, True]
