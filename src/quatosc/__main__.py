# python -m quatosc: the same entry point as the quatosc script, which freezes the imported heap
from .cli import run

run()
