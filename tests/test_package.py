import inspect

import votestack


def test_star_import_matches_all():
    namespace = {}
    exec("from votestack import *", namespace)
    assert set(votestack.__all__) <= namespace.keys()
    bound = {name for name, obj in vars(votestack).items()
             if (inspect.isclass(obj) or inspect.isfunction(obj))
             and not name.startswith("_")}
    assert bound <= set(votestack.__all__)
