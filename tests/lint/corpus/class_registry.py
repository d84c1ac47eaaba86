# lint-as: src/repro/wireless/cell.py
# expect: REP404
"""A cell registry kept on the class: every Cell ever built, in any
replication the process runs, lands in one shared list."""


class Cell:
    registry = []

    def __init__(self, name):
        self.name = name
        Cell.registry.append(self)

    def neighbours(self):
        return [c for c in Cell.registry if c is not self]
