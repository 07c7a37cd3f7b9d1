import pytest

from scrollcalc import Scroll, extensions

TEST_SCROLLS = (
    Scroll(1, 1),
    Scroll(1, 2),
    Scroll(2, 2),
    Scroll(1, 3),
    Scroll(2, 3),
)


@pytest.fixture(params=TEST_SCROLLS, ids=lambda s: f"S({s.a0},{s.a1})")
def scroll(request) -> Scroll:
    return request.param


@pytest.fixture
def walks(monkeypatch) -> list[int]:
    """The batch size of every walk of the Ext kernel, in call order."""
    seen = []
    real = extensions._walk

    def counting(s, b, twists):
        seen.append(len(twists))
        return real(s, b, twists)

    monkeypatch.setattr(extensions, "_walk", counting)
    return seen
