"""Outside DET004's scope: a builtin sum here is not flagged."""


def mean_depth(depths):
    return sum(depths) / len(depths)
