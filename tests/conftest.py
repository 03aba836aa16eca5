import pytest

from bistatic_radcom import dsp


@pytest.fixture(scope="session", autouse=True)
def polyphase_table():
    """Hold the resampler's polyphase table for the whole suite. The table
    lives only while a caller holds it, so without a holder every resampler
    call would build it again, and a test that patches ``dsp._BLOCK`` small
    would build it in thousands of one-phase blocks."""
    return dsp._tap_major_table()
