package repro.graph

import org.apache.spark.sql.functions._
import repro.SparkSpec

/** Spark edge-list utilities. */
class GraphsSparkSpec extends SparkSpec {

  test("edgesDF is symmetric with 2m rows and no self-loops") {
    val g = Generators.er(100, 300, seed = 201)
    val e = Graphs.edgesDF(spark, g)
    assert(e.count() == 2L * g.m)
    assert(e.where(col("src") === col("dst")).count() == 0)
    // symmetry: (src,dst) and (dst,src) both present
    val fwd = e.select(col("src"), col("dst"))
    val bwd = e.select(col("dst") as "src", col("src") as "dst")
    assert(fwd.exceptAll(bwd).count() == 0)
  }

  test("normalize drops self-loops, dedupes, and symmetrizes") {
    import spark.implicits._
    val raw = Seq((1L, 2L), (2L, 1L), (1L, 2L), (3L, 3L), (2L, 4L)).toDF("src", "dst")
    val norm = Graphs.normalize(raw)
    assert(norm.count() == 4) // edges {1,2} and {2,4}, both directions
    assert(norm.where(col("src") === col("dst")).count() == 0)
  }

  test("toLocal roundtrips a generated graph") {
    val g = Generators.ringChords(40, 15, seed = 203)
    val back = Graphs.toLocal(Graphs.edgesDF(spark, g))
    assert(back.n == g.n && back.m == g.m)
    for (v <- 0 until g.n) assert(back.neighbors(v).toList == g.neighbors(v).toList)
  }

  test("verticesDF covers 0..n-1") {
    val g = Generators.er(25, 50, seed = 204)
    val vs = Graphs.verticesDF(spark, g).collect().map(_.getLong(0)).sorted
    assert(vs.toSeq == (0L until g.n.toLong))
  }
}
